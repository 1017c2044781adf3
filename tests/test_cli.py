import io
import json
import sys

import pytest

from cislim.cli import main
from cislim.cat import CisDiagram, cis_direct_limit
from cislim.finspace import FinSpace
from cislim.interchange import (
    cis_from_doc,
    cis_to_doc,
    diagram_to_doc,
    dumps,
    limit_from_doc,
    morphism_to_doc,
)
from cislim.gallery import (
    MAX_SEARCH_POINTS,
    identity_system,
    sierpinski_space,
    sphere_chain,
    stationary_sphere,
)
from cislim.limit import verify_limit_axioms
from cislim.randgen import FuzzGen, point_system
from cislim.cis import validate_cis


def run(*argv):
    out = io.StringIO()
    status = main(list(argv), out)
    return status, out.getvalue()


@pytest.fixture
def sphere_doc(tmp_path):
    path = tmp_path / "sphere.json"
    status, _ = run("gallery", "sphere_chain", "2", "-o", str(path))
    assert status == 0
    return path


class TestExitCodes:
    def test_validate_ok(self, sphere_doc):
        status, text = run("validate", str(sphere_doc))
        assert status == 0
        assert "valid closed injective system" in text
        assert "inductive: yes" in text

    def test_argv_defaults_to_the_command_line(self, sphere_doc, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["cislim", "validate", str(sphere_doc)])
        out = io.StringIO()
        assert main(out=out) == 0
        assert out.getvalue() == run("validate", str(sphere_doc))[1]
        assert out.getvalue().startswith("valid closed injective system\n")

    def test_validate_failure_is_one(self, tmp_path):
        doc = cis_to_doc(sphere_chain(1))
        doc["stages"][1]["y"] = ["p1"]  # an open singleton: not closed
        bad = tmp_path / "bad.json"
        bad.write_text(dumps(doc))
        status, text = run("validate", str(bad))
        assert status == 1
        assert "gluing set closed" in text

    def test_malformed_json_is_two(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        status, text = run("validate", str(p))
        assert status == 2
        assert "input error" in text

    def test_schema_violation_is_two(self, tmp_path):
        p = tmp_path / "nospaces.json"
        p.write_text(json.dumps({"stages": [], "tail": {"kind": "cutoff"}}))
        status, text = run("validate", str(p))
        assert status == 2
        assert "stages" in text

    @pytest.mark.parametrize("co", [(), ("--co",)])
    def test_negative_degree_is_two(self, sphere_doc, co):
        status, text = run("invariance", str(sphere_doc), "--p", "-1", *co)
        assert status == 2
        assert text == "input error: homology degree must be >= 0, got -1\n"

    def test_negative_fuzz_count_is_two(self):
        assert run("fuzz", "--count", "-3", "--seed", "1") == (
            2, "input error: count must be >= 0, got -3\n"
        )

    def test_negative_search_cap_is_two(self, sphere_doc):
        assert run("search", str(sphere_doc), "--cap", "-1") == (
            2, "input error: cap must be >= 0, got -1\n"
        )
        assert run("search", str(sphere_doc), "--cap", "0") == (
            0, "undecided: limit exceeds the cap of 0 points\n"
        )

    def test_morphism_target_with_fewer_stages_is_two(self, tmp_path):
        _, m = point_system(sphere_chain(1))
        doc = morphism_to_doc(m)
        doc["target"] = cis_to_doc(point_system(sphere_chain(0))[0])
        p = tmp_path / "m.json"
        p.write_text(dumps(doc))
        status, text = run("morphism", str(p))
        assert status == 2
        assert text == f"input error: {p}.target: target has 1 stages, source has 2\n"

    def test_diagram_arrow_into_a_shorter_object_is_two(self, tmp_path):
        c = sphere_chain(1)
        target, m = point_system(c)
        doc = diagram_to_doc(CisDiagram((c, target), (m,)))
        doc["objects"][1] = cis_to_doc(point_system(sphere_chain(0))[0])
        p = tmp_path / "d.json"
        p.write_text(dumps(doc))
        status, text = run("diagram-limit", str(p))
        assert status == 2
        assert text == f"input error: {p}.arrows[0]: target has 1 stages, source has 2\n"

    @pytest.mark.parametrize(
        "stage_maps",
        [
            [{"a": "b", "b": "a"}, {"a": "b", "b": "a"}],  # swaps the closed and open point
            [{"a": "a", "b": "b"}, {"a": "a", "b": "a"}],  # constant on stage 1: no square commutes
        ],
        ids=["discontinuous", "non-commuting"],
    )
    def test_diagram_with_an_invalid_arrow_is_two(self, tmp_path, stage_maps):
        obj = tmp_path / "identity.json"
        assert run("gallery", "identity", "sierpinski", "2", "-o", str(obj))[0] == 0
        c = json.loads(obj.read_text())
        p = tmp_path / "d.json"
        p.write_text(json.dumps({"objects": [c, c], "arrows": [{"h": stage_maps}]}))
        status, text = run("diagram-limit", str(p))
        assert status == 2
        assert text.startswith("input error: arrow 0 is not a cis-morphism:\n")

    @pytest.mark.parametrize(
        "y0, f0, objects, detail",
        [
            (["a"], {"a": "a"}, 1, "stage 0: gluing set closed: closure adds ['b']"),
            (["a"], {"a": "a"}, 2, "stage 0: gluing set closed: closure adds ['b']"),
            (["a", "b"], {"a": "a", "b": "a"}, 1,
             "stage 0: attachment injective: two points share an image"),
        ],
        ids=["open gluing set", "two objects", "non-injective"],
    )
    def test_diagram_of_invalid_systems_is_two(self, tmp_path, y0, f0, objects, detail):
        # on the Sierpinski space cl{a} = {a, b}, so {a} is no gluing set
        c = cis_to_doc(identity_system(sierpinski_space(), 2))
        c["stages"][0]["y"], c["stages"][0]["f"] = y0, f0
        ident = [{"a": "a", "b": "b"}] * 2
        p = tmp_path / "d.json"
        arrows = [{"h": ident}] * (objects - 1)
        p.write_text(json.dumps({"objects": [c] * objects, "arrows": arrows}))
        status, text = run("diagram-limit", str(p))
        assert status == 2
        assert text.startswith("input error: object 0 is not a valid closed injective system:\n")
        assert detail in text.splitlines() and "Traceback" not in text

    @pytest.mark.parametrize("flags", [(), ("--induced",)])
    def test_morphism_between_invalid_systems_is_one(self, tmp_path, flags):
        c = cis_to_doc(identity_system(sierpinski_space(), 2))
        c["stages"][0]["y"], c["stages"][0]["f"] = ["a"], {"a": "a"}
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"source": c, "target": c, "h": [{"a": "a", "b": "b"}] * 2}))
        status, text = run("morphism", str(p), *flags)
        assert status == 1
        lines = text.splitlines()
        for side in ("source", "target"):
            assert f"stage 0: {side} system: gluing set closed: closure adds ['b']" in lines
        assert "valid cis-morphism" not in text and "input error" not in text

    def test_morphism_that_does_not_commute_is_one(self, tmp_path):
        # the identity system on discrete {a, b}, mapped to itself by the
        # identity at stage 0 and the swap at stage 1
        ab = FinSpace(frozenset("ab"), {"a": frozenset("a"), "b": frozenset("b")})
        c = cis_to_doc(identity_system(ab, 2))
        p = tmp_path / "m.json"
        p.write_text(json.dumps(
            {"source": c, "target": c, "h": [{"a": "a", "b": "b"}, {"a": "b", "b": "a"}]}
        ))
        assert run("morphism", str(p)) == (1, (
            "stage 0: commutes with attachments: a: forward-then-map gives b, map-then-forward gives a\n"
            "stage 0: commutes with attachments: b: forward-then-map gives a, map-then-forward gives b\n"
        ))

    def test_boolean_stationary_index_is_two(self, tmp_path):
        doc = cis_to_doc(sphere_chain(1))
        doc["tail"] = {"kind": "stationary", "n0": True}
        p = tmp_path / "c.json"
        p.write_text(dumps(doc))
        status, text = run("validate", str(p))
        assert status == 2
        assert text == f"input error: {p}.tail.n0: expected an integer\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("sphere_chain", "abc"), "parameter 1 must be an integer, got 'abc'"),
            (("torus_chain", "2", "3"), "extra parameter '3': torus_chain takes at most 1"),
            (("interval_chain", "--stationary"), "interval_chain has no stationary form"),
        ],
        ids=["non-integer", "extra", "no stationary form"],
    )
    def test_bad_gallery_parameter_is_two(self, argv, message):
        status, text = run("gallery", *argv)
        assert status == 2
        assert text.startswith(f"input error: {message}")

    def test_homology_of_an_invalid_system_prints_only_the_error(self, tmp_path):
        doc = cis_to_doc(identity_system(sierpinski_space(), 2))
        doc["stages"][0]["f"] = {"a": "a", "b": "a"}  # not injective
        p = tmp_path / "c.json"
        p.write_text(dumps(doc))
        status, text = run("homology", str(p))
        assert status == 2
        assert text.startswith("input error: invalid closed injective system:\n")
        assert "betti" not in text

    def test_unknown_point_in_a_minimal_open_set_is_two(self, tmp_path):
        doc = cis_to_doc(sphere_chain(1))
        doc["stages"][0]["space"]["min_open"]["a"].append("zz")
        p = tmp_path / "c.json"
        p.write_text(dumps(doc))
        status, text = run("validate", str(p))
        assert status == 2
        assert text == f"input error: {p}.stages[0].space: U_'a' contains unknown points ['zz']\n"

    def test_structure_map_that_is_not_total_is_two(self, sphere_doc, tmp_path):
        lim = tmp_path / "l.json"
        assert run("limit", str(sphere_doc), "-o", str(lim))[0] == 0
        doc = json.loads(lim.read_text())
        del doc["phis"][1]["a"]
        lim.write_text(dumps(doc))
        status, text = run("verify", str(sphere_doc), str(lim))
        assert status == 2
        assert text == (
            f"input error: {lim}.phis[1]: assignment is not total on the source; mismatch at ['a']\n"
        )


class TestPinnedErrorPaths:
    """Error branches a document or an argument can reach, each pinned by its
    exact output."""

    @staticmethod
    def write(tmp_path, name, doc):
        p = tmp_path / name
        p.write_text(dumps(doc))
        return p

    def test_attachment_leaving_its_target_is_two(self, tmp_path):
        doc = cis_to_doc(identity_system(sierpinski_space(), 2))
        doc["stages"][0]["f"] = {"a": "z", "b": "b"}
        p = self.write(tmp_path, "c.json", doc)
        assert run("validate", str(p)) == (
            2, f"input error: {p}.stages[0]: assignment leaves the target at ['z']\n"
        )

    def test_structure_map_leaving_the_limit_is_two(self, tmp_path):
        c = self.write(tmp_path, "c.json", cis_to_doc(identity_system(sierpinski_space(), 2)))
        lim = tmp_path / "l.json"
        assert run("limit", str(c), "-o", str(lim))[0] == 0
        doc = json.loads(lim.read_text())
        doc["phis"][0]["a"] = "z"
        lim.write_text(dumps(doc))
        assert run("verify", str(c), str(lim)) == (
            2, f"input error: {lim}.phis[0]: assignment leaves the target at ['z']\n"
        )

    def test_verify_refuses_an_invalid_system_before_reading_the_limit(self, tmp_path):
        # the parked stage glues along nothing: the document is well-formed,
        # but the system fails the stationary-tail axiom
        c = stationary_sphere(1)
        good, lim = self.write(tmp_path, "c.json", cis_to_doc(c)), tmp_path / "l.json"
        assert run("limit", str(good), "-o", str(lim))[0] == 0
        doc = cis_to_doc(c)
        doc["stages"][1]["y"] = []
        bad = self.write(tmp_path, "bad.json", doc)
        want = "input error: invalid closed injective system:\n"
        want += validate_cis(cis_from_doc(doc)).render() + "\n"
        assert "stationary tail" in want
        assert run("verify", str(bad), str(lim)) == (2, want)
        assert run("verify", str(bad), str(tmp_path / "missing.json")) == (2, want)

    def test_invariance_refuses_an_invalid_system_before_the_inductive_test(self, tmp_path):
        doc = cis_to_doc(stationary_sphere(1))
        doc["stages"][1]["y"] = []  # well-formed, but fails the stationary-tail axiom
        bad = self.write(tmp_path, "bad.json", doc)
        want = "input error: invalid closed injective system:\n"
        want += validate_cis(cis_from_doc(doc)).render() + "\n"
        assert "stationary tail" in want
        assert run("invariance", str(bad)) == (2, want)
        assert run("invariance", str(bad), "--co") == (2, want)

    def test_morphism_from_a_cutoff_into_a_stationary_tail_is_two(self, tmp_path):
        s = sierpinski_space()
        doc = {
            "source": cis_to_doc(identity_system(s, 2)),
            "target": cis_to_doc(identity_system(s, 2, stationary=True)),
            "h": [{"a": "a", "b": "b"}, {"a": "a", "b": "b"}],
        }
        p = self.write(tmp_path, "m.json", doc)
        assert run("morphism", str(p)) == (
            2, f"input error: {p}: morphism between systems with incompatible tails\n"
        )

    def test_missing_file_is_two(self, tmp_path):
        p = tmp_path / "missing.json"
        assert run("validate", str(p)) == (
            2, f"input error: {p}: cannot read file: [Errno 2] No such file or directory: "
               f"{str(p)!r}\n"
        )

    def test_invariance_on_a_non_inductive_system_is_two(self, tmp_path):
        p = tmp_path / "c.json"
        assert run("gallery", "interval_chain", "2", "-o", str(p))[0] == 0
        assert run("invariance", str(p)) == (
            2, "system is not inductive; invariance theorems do not apply\n"
        )

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"\xff\xfe{}", "not UTF-8: invalid start byte at byte 0"),
            (b"[" * 100000, "nested too deeply to read"),
            (b"\xef\xbb\xbf{}", "line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            # line ends count as a text-mode read counts them
            (b'{\r"stages":\r[],,}', "line 3, column 4: Expecting property name enclosed in double quotes"),
            (b'{\r\n"stages":\r\n[],,}', "line 3, column 4: Expecting property name enclosed in double quotes"),
        ],
        ids=["not UTF-8", "nested too deeply", "BOM", "CR line ends", "CRLF line ends"],
    )
    def test_an_undecodable_file_is_two(self, tmp_path, data, message):
        p = tmp_path / "c.json"
        p.write_bytes(data)
        assert run("validate", str(p)) == (2, f"input error: {p}: {message}\n")

    def test_a_number_past_the_digit_limit_is_two(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("1" * 5000)
        status, text = run("validate", str(p))
        assert status == 2
        assert text.startswith(f"input error: {p}: Exceeds the limit (4300 digits)")
        assert text.count("\n") == 1

    def test_negative_pmax_prints_only_the_error(self, sphere_doc):
        assert run("homology", str(sphere_doc), "--pmax", "-1") == (
            2, "input error: pmax must be >= 0\n"
        )

    @pytest.mark.parametrize(
        "stage, text",
        [
            (
                {"f": {"a": "b", "b": "a"}},
                "stage 0: attachment continuous: minimal opens are not respected\n"
                "stage 0: attachment closed: some point-closure image is not closed\n",
            ),
            (
                {"space": {"points": [], "min_open": {}}, "y": [], "f": {}},
                "stage 0: space nonempty: stage space has no points\n"
                "note: stage 0 has an empty gluing set; it attaches to nothing\n",
            ),
        ],
        ids=["sierpinski swap", "empty stage"],
    )
    def test_validate_on_an_invalid_stage_is_one(self, tmp_path, stage, text):
        doc = cis_to_doc(identity_system(sierpinski_space(), 2))
        doc["stages"][0].update(stage)
        p = self.write(tmp_path, "c.json", doc)
        assert run("validate", str(p)) == (1, text)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("identity", "torus"), "unknown base space 'torus'; pick from"
                                    " ['circle', 'point', 'sierpinski']"),
            (("identity", "sierpinski", "9"), "identity system length must be within 1..6"),
            (("interval_chain", "9"), "interval chain length must be within 1..6"),
        ],
        ids=["unknown base", "identity too long", "interval chain too long"],
    )
    def test_gallery_parameter_out_of_range_is_two(self, argv, message):
        assert run("gallery", *argv) == (2, f"input error: {message}\n")


TOP_USAGE = (
    "usage: cislim [-h]\n"
    "              {validate,limit,verify,morphism,diagram-limit,homology,invariance,gallery,fuzz,search}\n"
    "              ...\n"
)
VERB_CHOICES = (
    "'validate', 'limit', 'verify', 'morphism', 'diagram-limit', 'homology', "
    "'invariance', 'gallery', 'fuzz', 'search'"
)
TOP_HELP = TOP_USAGE + """
closed injective systems of finite spaces and their fundamental limits

positional arguments:
  {validate,limit,verify,morphism,diagram-limit,homology,invariance,gallery,fuzz,search}
    validate            check a system document against the axioms
    limit               build the fundamental limit of a system
    verify              verify a limit candidate against a system
    morphism            validate a morphism document
    diagram-limit       direct limit of a diagram of systems
    homology            mod-2 betti numbers of stages and limit
    invariance          (counter-)functorial invariance check
    gallery             emit a canonical example system
    fuzz                run the seeded theorem sweep
    search              look for non-fundamental limit topologies

options:
  -h, --help            show this help message and exit
"""


class TestArgvPaths:
    """What argparse prints and the status it exits with, byte for byte, for
    argument lists that never reach a verb.  A refusal names the parser that
    refused: the verb's own for its arguments, the top-level one for an
    unknown verb or an argument no parser takes."""

    @pytest.fixture(autouse=True)
    def width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width

    @staticmethod
    def exits(capsys, *argv):
        out = io.StringIO()
        with pytest.raises(SystemExit) as stop:
            main(list(argv), out)
        seen = capsys.readouterr()
        assert out.getvalue() == ""
        return stop.value.code, seen.out, seen.err

    @pytest.mark.parametrize(
        "argv, err",
        [
            (("validate",), "usage: cislim validate [-h] cis\n"
                            "cislim validate: error: the following arguments are required: cis\n"),
            (("verify", "c.json"), "usage: cislim verify [-h] cis limit\n"
                                   "cislim verify: error: the following arguments are required: limit\n"),
            (("validate", "c.json", "extra.json"),
             TOP_USAGE + "cislim: error: unrecognized arguments: extra.json\n"),
            (("limit", "c.json", "--bogus", "x", "-o", "l.json"),
             TOP_USAGE + "cislim: error: unrecognized arguments: --bogus x\n"),
            (("bogus",), TOP_USAGE + "cislim: error: argument command: invalid choice: 'bogus' "
                         f"(choose from {VERB_CHOICES})\n"),
            ((), TOP_USAGE + "cislim: error: the following arguments are required: command\n"),
            (("homology", "c.json", "--pmax", "two"),
             "usage: cislim homology [-h] [--pmax PMAX] cis\n"
             "cislim homology: error: argument --pmax: invalid int value: 'two'\n"),
        ],
        ids=["missing positional", "second positional missing", "extra positional",
             "unknown option", "unknown verb", "no verb", "non-integer pmax"],
    )
    def test_a_refusal_exits_two(self, capsys, argv, err):
        assert self.exits(capsys, *argv) == (2, "", err)

    def test_top_level_help(self, capsys):
        assert self.exits(capsys, "-h") == (0, TOP_HELP, "")

    def test_verb_help(self, capsys):
        help_text = (
            "usage: cislim validate [-h] cis\n\n"
            "positional arguments:\n  cis\n\n"
            "options:\n  -h, --help  show this help message and exit\n"
        )
        assert self.exits(capsys, "validate", "-h") == (0, help_text, "")
        assert self.exits(capsys, "validate", "c.json", "--help") == (0, help_text, "")


class TestPipelines:
    def test_limit_verify_round_trip(self, sphere_doc, tmp_path):
        lim = tmp_path / "limit.json"
        dot = tmp_path / "limit.dot"
        status, _ = run("limit", str(sphere_doc), "-o", str(lim), "--dot", str(dot))
        assert status == 0
        assert dot.read_text().startswith("digraph")
        status, text = run("verify", str(sphere_doc), str(lim))
        assert status == 0
        assert "verdict: fundamental limit space" in text
        # emitted documents re-parse and re-verify through the library too
        c = cis_from_doc(json.loads(sphere_doc.read_text()))
        ls = limit_from_doc(json.loads(lim.read_text()), c)
        assert verify_limit_axioms(c, ls).passed

    def test_verify_rejects_mutilated_limit(self, sphere_doc, tmp_path):
        status, _ = run("limit", str(sphere_doc), "-o", str(tmp_path / "l.json"))
        assert status == 0
        doc = json.loads((tmp_path / "l.json").read_text())
        doc["phis"][0] = {k: doc["phis"][0][k] for k in doc["phis"][0]}
        first = sorted(doc["phis"][0])
        doc["phis"][0][first[0]] = doc["phis"][0][first[1]]  # break injectivity
        (tmp_path / "l.json").write_text(dumps(doc))
        status, text = run("verify", str(sphere_doc), str(tmp_path / "l.json"))
        assert status == 1
        assert "not a fundamental limit space" in text

    def test_homology_output(self, sphere_doc):
        status, text = run("homology", str(sphere_doc), "--pmax", "2")
        assert status == 0
        assert "fundamental limit: betti [1, 0, 1]" in text

    def test_invariance_both_ways(self, sphere_doc):
        status, text = run("invariance", str(sphere_doc), "--p", "1")
        assert status == 0 and "pass" in text
        status, text = run("invariance", str(sphere_doc), "--p", "1", "--co")
        assert status == 0 and "pass" in text

    def test_morphism_with_induced_map(self, tmp_path):
        c = sphere_chain(1)
        _, m = point_system(c)
        p = tmp_path / "m.json"
        p.write_text(dumps(morphism_to_doc(m)))
        status, text = run("morphism", str(p), "--induced")
        assert status == 0
        assert "valid cis-morphism" in text
        assert "continuous=True closed=True" in text

    def test_diagram_limit(self, tmp_path):
        c = sphere_chain(1)
        target, m = point_system(c)
        d = CisDiagram((c, target), (m,))
        p = tmp_path / "d.json"
        p.write_text(dumps(diagram_to_doc(d)))
        out_path = tmp_path / "out.json"
        status, text = run("diagram-limit", str(p), "-o", str(out_path))
        assert status == 0
        assert "final topology of mediating maps: pass" in text
        limit = cis_from_doc(json.loads(out_path.read_text()))
        assert validate_cis(limit).ok

    def test_diagram_limit_builds_the_direct_limit_once(self, tmp_path):
        c = sphere_chain(1)
        target, m = point_system(c)
        p = tmp_path / "d.json"
        p.write_text(dumps(diagram_to_doc(CisDiagram((c, target), (m,)))))
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code is cis_direct_limit.__code__:
                calls.append(event)

        sys.setprofile(count)
        try:
            status, _ = run("diagram-limit", str(p))
        finally:
            sys.setprofile(None)
        assert status == 0
        assert len(calls) == 1

    def test_search_reports_findings(self, tmp_path):
        p = tmp_path / "ns.json"
        status, _ = run("gallery", "non_semicomponible", "-o", str(p))
        assert status == 0
        status, text = run("search", str(p), "--cap", "4")
        assert status == 0
        assert "found 1 non-fundamental limits" in text

    def test_search_undecided_above_cap(self, sphere_doc):
        status, text = run("search", str(sphere_doc), "--cap", "3")
        assert status == 0
        assert "undecided" in text

    @pytest.mark.parametrize("cap", [MAX_SEARCH_POINTS + 1, 30])
    def test_search_caps_above_the_limit_name_the_cap_applied(self, sphere_doc, cap):
        # the 6-point S^2 limit would walk 2^30 relations under a cap of 6
        status, text = run("search", str(sphere_doc), "--cap", str(cap))
        assert status == 0
        assert text == f"undecided: limit exceeds the cap of {MAX_SEARCH_POINTS} points\n"

    def test_search_above_the_limit_still_completes_small_limits(self, tmp_path):
        p = tmp_path / "ns.json"
        assert run("gallery", "non_semicomponible", "-o", str(p))[0] == 0
        assert run("search", str(p), "--cap", "6") == run("search", str(p), "--cap", "4")

    @pytest.mark.parametrize("invalid", [False, True])
    def test_search_validates_once(self, tmp_path, invalid):
        doc = cis_to_doc(sphere_chain(1))
        if invalid:
            doc["stages"][1]["y"] = ["p1"]  # an open singleton: not closed
        p = tmp_path / "s.json"
        p.write_text(dumps(doc))
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code is validate_cis.__code__:
                calls.append(event)

        sys.setprofile(count)
        try:
            status, text = run("search", str(p))
        finally:
            sys.setprofile(None)
        assert len(calls) == 1
        if invalid:
            assert (status, text) == (2, (
                "input error: cannot search an invalid system:\n"
                "stage 1: gluing set closed: closure adds ['a', 'b']\n"
            ))
        else:
            assert (status, text) == (
                0, "examined 355 topologies, found 0 non-fundamental limits\n"
            )


class TestDeterminism:
    def test_fuzz_reports_are_byte_identical(self):
        s1, t1 = run("fuzz", "--count", "30", "--seed", "123")
        s2, t2 = run("fuzz", "--count", "30", "--seed", "123")
        assert s1 == s2 == 0
        assert t1 == t2
        assert "verdict: all theorem checks passed" in t1

    def test_fuzz_solves_each_invariance_degree_once(self, monkeypatch):
        from cislim import cli

        degrees = []
        check = cli.functorial_invariance_check
        monkeypatch.setattr(cli, "functorial_invariance_check",
                            lambda c, p, ls: degrees.append(p) or check(c, p, ls))
        monkeypatch.delattr(cli, "counter_functorial_check")
        status, text = run("fuzz", "--count", "10", "--seed", "7")
        assert status == 0, text
        assert degrees == [0, 1, 2, 0, 1, 2]  # systems 0 and 5

    def test_different_seeds_differ(self):
        _, t1 = run("fuzz", "--count", "10", "--seed", "1")
        _, t2 = run("fuzz", "--count", "10", "--seed", "2")
        assert t1 != t2

    def test_gallery_emission_is_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gallery", "torus_chain", "2", "-o", str(a))
        run("gallery", "torus_chain", "2", "-o", str(b))
        assert a.read_text() == b.read_text()


class TestRepeatedCalls:
    """main() reuses one parser; options of one call must not reach the next."""

    def test_contravariant_flag_does_not_stick(self, sphere_doc, monkeypatch):
        from cislim import cli

        ran = []
        for name in ("functorial_invariance_check", "counter_functorial_check"):
            check = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, _n=name, _c=check: ran.append(_n) or _c(*a))
        assert run("invariance", str(sphere_doc), "--co")[0] == 0
        assert run("invariance", str(sphere_doc))[0] == 0
        assert ran == ["counter_functorial_check", "functorial_invariance_check"]

    def test_output_file_does_not_stick(self, sphere_doc, tmp_path):
        target = tmp_path / "limit.json"
        status, text = run("limit", str(sphere_doc), "-o", str(target))
        assert status == 0 and text.startswith("fundamental limit:")
        written = target.read_text()
        status, text = run("limit", str(sphere_doc))
        assert status == 0
        assert text == written


# imports every cislim module with numpy blocked, then runs verbs on argv[1]
_WITHOUT_NUMPY = """
import importlib, io, pkgutil, sys
sys.modules["numpy"] = None
import cislim
for mod in pkgutil.iter_modules(cislim.__path__):
    importlib.import_module("cislim." + mod.name)
from cislim.cli import main
doc = sys.argv[1]
verbs = [["fuzz", "--count", "5", "--seed", "7"], ["homology", doc],
         ["invariance", doc, "--p", "1"], ["invariance", doc, "--p", "1", "--co"]]
print([main(argv, io.StringIO()) for argv in verbs])
"""


def test_the_library_runs_without_numpy(sphere_doc):
    import os
    import subprocess
    from pathlib import Path

    import cislim

    src = str(Path(cislim.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(sphere_doc)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[0, 0, 0, 0]\n"
