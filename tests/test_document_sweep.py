"""Single-fault sweep over the interchange documents, run through `cli.main`.

One valid document of each kind (system, limit, morphism with both systems
embedded, diagram) gets one fault at a time: a key dropped, or a value,
the whole document included, replaced by null, a bool, an int, a float, a
string, a list, an object or an unknown point id.  Every verb that reads
that kind of document then runs on it.  It must exit 2 naming the faulty
JSON path or a parent of it, or give the outcome `ALLOWED` lists for its
verb; no fault may escape as an exception.
"""

import copy
import io
import json
import re

import pytest

from cislim import cli
from cislim.cat import CisDiagram, identity_morphism
from cislim.gallery import stationary_sphere
from cislim.interchange import cis_to_doc, diagram_to_doc, limit_to_doc, morphism_to_doc
from cislim.limit import build_fundamental

REPLACEMENTS = (None, True, 3, 0.5, "", [], {}, "nowhere")

SYSTEM = stationary_sphere(1)  # S^0 into S^1, parked at stage 1 with n0 = 1
DOCS = {
    "system": cis_to_doc(SYSTEM),
    "limit": limit_to_doc(build_fundamental(SYSTEM)),
    "morphism": morphism_to_doc(identity_morphism(SYSTEM)),
    "diagram": diagram_to_doc(CisDiagram((SYSTEM, SYSTEM), (identity_morphism(SYSTEM),))),
}
# the verbs that read each kind of document; the faulty one is written to "bad"
VERBS = {
    "system": (
        ["validate", "bad"], ["limit", "bad"], ["verify", "bad", "limit"], ["homology", "bad"],
        ["invariance", "bad"], ["search", "bad", "--cap", "1"],
    ),
    "limit": (["verify", "system", "bad"],),
    "morphism": (["morphism", "bad", "--induced"],),
    "diagram": (["diagram-limit", "bad"],),
}

# The one fault the loaders accept: an empty gluing set on the parked stage
# leaves a well-formed document whose system fails the stationary-tail axiom,
# so each verb reports that failure instead of a path.  Each entry is (exit
# status, start of the output).
PARKED_Y = re.compile(r"(\.(source|target|objects\[[01]\]))?\.stages\[1\]\.y")
ALLOWED = {
    "validate": (1, "stage 1: stationary tail: the parked stage must glue along all of itself"),
    "limit": (2, "input error: invalid closed injective system:"),
    "verify": (2, "input error: invalid closed injective system:"),
    "homology": (2, "input error: invalid closed injective system:"),
    "invariance": (2, "system is not inductive"),
    "search": (2, "input error: cannot search an invalid system:"),
    "morphism": (1, "stage 1: "),
    "diagram-limit": (2, "input error: object "),
}


def _paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _faults(doc):
    """(JSON path, fault, faulty document) for every single fault of doc."""
    for path in _paths(doc):
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        kinds = (["drop"] if path and isinstance(path[-1], str) else []) + list(REPLACEMENTS)
        for fault in kinds:
            if not path:
                yield where, fault, copy.deepcopy(fault)
                continue
            bad = copy.deepcopy(doc)
            parent = bad
            for key in path[:-1]:
                parent = parent[key]
            if fault == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(fault)
            yield where, fault, bad


@pytest.mark.parametrize("kind", sorted(DOCS))
def test_every_single_fault_is_named_or_allowed(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("system", "limit"):
        (tmp_path / name).write_text(json.dumps(DOCS[name]))
    runs, allowed = 0, 0
    for where, fault, bad in _faults(DOCS[kind]):
        (tmp_path / "bad").write_text(json.dumps(bad))
        for argv in VERBS[kind]:
            out = io.StringIO()
            status = cli.main(argv, out)  # an escaping exception fails the test here
            text, runs = out.getvalue(), runs + 1
            named = text.removeprefix("input error: bad").split(": ", 1)[0]
            if status == 2 and text.startswith("input error: bad") and where.startswith(named):
                assert where[len(named):][:1] in ("", ".", "["), (where, fault, text)
                continue
            assert PARKED_Y.fullmatch(where) and fault == [], (argv, where, fault, text)
            code, start = ALLOWED[argv[0]]
            assert status == code and text.startswith(start), (argv, where, fault, text)
            allowed += 1
    assert runs == {"system": 2334, "limit": 246, "morphism": 867, "diagram": 891}[kind]
    # the parked stage of each embedded system, once per verb
    assert allowed == {"system": 6, "limit": 0, "morphism": 2, "diagram": 2}[kind]
