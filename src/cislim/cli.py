"""Command-line front end.

Exit status: 0 when everything requested passed, 1 when a verification
failed (the report is still printed), 2 on malformed input.  Reports are
plain deterministic text: same inputs and seed, same bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import interchange
from .cat import check_limit_compatibility, induced_fundamental_map, validate_morphism
from .cis import is_finitely_semicomponible, is_inductive, is_stationary, require_valid, validate_cis
from .finspace import TopologyError, classify_map
from .gallery import GALLERY_NAMES, build_example, search_non_fundamental
from .homology import (
    betti_mod2,
    counter_functorial_check,
    functorial_invariance_check,
    order_complex,
)
from .limit import (
    build_fundamental,
    has_weak_topology,
    images_closed,
    verify_gluing_laws,
    verify_limit_axioms,
)
from .randgen import FuzzGen

OK, VERIFY_FAILED, INPUT_ERROR = 0, 1, 2


def _load_json(path: str):
    """The JSON document in the file at path.

    The bytes are decoded here: json would read a leading BOM as a UTF-8-sig
    mark, and it is refused instead.  Line ends are read as text mode reads
    them, so an error names the same line and column."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise interchange.InterchangeError(path, f"cannot read file: {e}") from e
    try:
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise interchange.InterchangeError(path, f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise interchange.InterchangeError(path, f"not UTF-8: {e.reason} at byte {e.start}") from e
    except RecursionError as e:
        raise interchange.InterchangeError(path, "nested too deeply to read") from e
    except ValueError as e:  # a number past the interpreter's digit limit
        raise interchange.InterchangeError(path, str(e)) from e


def _write(path: str | None, text: str, out):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)


def cmd_validate(args, out) -> int:
    c = interchange.cis_from_doc(_load_json(args.cis), args.cis)
    rep = validate_cis(c)
    out.write(rep.render() + "\n")
    if rep.ok:
        out.write(f"inductive: {'yes' if is_inductive(c) else 'no'}\n")
        parked = is_stationary(c)
        out.write(f"stationary: {f'yes, parks at stage {parked}' if parked is not None else 'no'}\n")
        fin = is_finitely_semicomponible(c)
        marker = " (truncation-relative)" if fin.truncation_relative else ""
        out.write(f"finitely semicomponible: {'yes' if fin.value else 'no'}{marker}\n")
    return OK if rep.ok else VERIFY_FAILED


def cmd_limit(args, out) -> int:
    c = interchange.cis_from_doc(_load_json(args.cis), args.cis)
    ls = build_fundamental(c)
    doc = interchange.dumps(interchange.limit_to_doc(ls))
    _write(args.output, doc, out)
    if args.dot:
        _write(args.dot, interchange.to_dot(ls.x), out)
    if args.output:
        out.write(f"fundamental limit: {len(ls.x.points)} points over {c.stage_count} stages\n")
    return OK


def cmd_verify(args, out) -> int:
    c = interchange.cis_from_doc(_load_json(args.cis), args.cis)
    require_valid(c)  # the limit checks assume a valid system, as `limit` and `homology` do
    ls = interchange.limit_from_doc(_load_json(args.limit), c, args.limit)
    axioms = verify_limit_axioms(c, ls)
    gluing = verify_gluing_laws(c, ls)
    weak = has_weak_topology(c, ls)
    closed = images_closed(ls)
    out.write(axioms.render() + "\n")
    out.write(gluing.render() + "\n")
    out.write(f"weak topology: {'pass' if weak else 'FAIL'}\n")
    out.write(f"closed images: {'pass' if closed.value else 'FAIL'}"
              + (f" (stages {list(closed.open_image_stages)})" if not closed.value else "")
              + "\n")
    fundamental = axioms.passed and weak
    out.write(
        "verdict: fundamental limit space\n"
        if fundamental
        else "verdict: not a fundamental limit space\n"
    )
    return OK if axioms.passed and gluing.passed and weak and closed.value else VERIFY_FAILED


def cmd_morphism(args, out) -> int:
    m = interchange.morphism_from_doc(_load_json(args.morphism), args.morphism)
    rep = validate_morphism(m)
    out.write(rep.render() + "\n")
    if not rep.ok:
        return VERIFY_FAILED
    if args.induced:
        induced = induced_fundamental_map(m)
        prof = classify_map(induced)
        out.write(
            f"induced fundamental map on {len(induced.source.points)} points: "
            f"continuous={prof.continuous} closed={prof.closed} "
            f"injective={prof.injective} surjective={prof.surjective}\n"
        )
        for p in sorted(induced.source.points):
            out.write(f"  {p} -> {induced(p)}\n")
    return OK


def cmd_diagram_limit(args, out) -> int:
    d = interchange.diagram_from_doc(_load_json(args.diagram), args.diagram)
    compat = check_limit_compatibility(d)
    limit = compat.direct_limit.limit
    if args.output:
        _write(args.output, interchange.dumps(interchange.cis_to_doc(limit)), out)
    out.write(
        f"direct limit over {len(d.objects)} objects: "
        + " ".join(str(len(st.space.points)) for st in limit.stages)
        + " points per stage\n"
    )
    out.write("mediating maps continuous: " + ("pass" if compat.mediating_continuous else "FAIL") + "\n")
    out.write("mediating cocone identities: " + ("pass" if compat.cocone_identities else "FAIL") + "\n")
    out.write("final topology of mediating maps: " + ("pass" if compat.final_topology else "FAIL") + "\n")
    for w in compat.witnesses:
        out.write(f"  witness: {w}\n")
    return OK if compat.ok else VERIFY_FAILED


def cmd_homology(args, out) -> int:
    c = interchange.cis_from_doc(_load_json(args.cis), args.cis)
    ls = build_fundamental(c)  # an invalid system stops here, before any line is printed
    for i, st in enumerate(c.stages):
        b = betti_mod2(order_complex(st.space), args.pmax)
        out.write(f"stage {i}: betti {b}\n")
    b = betti_mod2(order_complex(ls.x), args.pmax)
    out.write(f"fundamental limit: betti {b}\n")
    return OK


def cmd_invariance(args, out) -> int:
    c = interchange.cis_from_doc(_load_json(args.cis), args.cis)
    require_valid(c)  # an invalid system is reported as one, not as non-inductive
    if not is_inductive(c):
        out.write("system is not inductive; invariance theorems do not apply\n")
        return INPUT_ERROR
    check = counter_functorial_check if args.contravariant else functorial_invariance_check
    rep = check(c, args.p)
    out.write(rep.render() + "\n")
    return OK if rep.ok else VERIFY_FAILED


def cmd_gallery(args, out) -> int:
    c = build_example(args.name, *args.params, stationary=args.stationary)
    doc = interchange.dumps(interchange.cis_to_doc(c))
    _write(args.output, doc, out)
    if args.output:
        out.write(f"wrote {args.name} system with {c.stage_count} stages\n")
    return OK


def cmd_search(args, out) -> int:
    c = interchange.cis_from_doc(_load_json(args.cis), args.cis)
    res = search_non_fundamental(c, cap=args.cap)
    if res.status == "undecided":
        out.write(f"undecided: limit exceeds the cap of {res.cap} points\n")
        return OK
    out.write(f"examined {res.examined} topologies, found {len(res.found)} non-fundamental limits\n")
    for cand in res.found:
        out.write(interchange.dumps(interchange.limit_to_doc(cand)))
    return OK


def cmd_fuzz(args, out) -> int:
    if args.count < 0:
        raise TopologyError(f"count must be >= 0, got {args.count}")
    gen = FuzzGen(args.seed)
    counters = {
        "systems built": 0,
        "limit axioms on built limits": 0,
        "gluing laws agree with axioms": 0,
        "weak topology on built limits": 0,
        "closed images on built limits": 0,
        "mutant verdicts agree": 0,
        "mutants failing (corpus)": 0,
        "weak topology implies closed images": 0,
        "closed cover implies weak topology": 0,
        "invariance on inductive systems": 0,
    }
    failures = []

    def tally(counter: str, ok: bool, failure: str) -> None:
        if ok:
            counters[counter] += 1
        else:
            failures.append(failure)

    for k in range(args.count):
        c = gen.cis()
        ls = build_fundamental(c)
        counters["systems built"] += 1
        rep_a = verify_limit_axioms(c, ls)
        rep_g = verify_gluing_laws(c, ls)
        tally("limit axioms on built limits", rep_a.passed,
              f"system {k}: built limit failed axioms")
        tally("gluing laws agree with axioms", rep_a.passed == rep_g.passed,
              f"system {k}: verifier verdicts disagree")
        tally("weak topology on built limits", has_weak_topology(c, ls),
              f"system {k}: built limit lacks weak topology")
        tally("closed images on built limits", images_closed(ls).value,
              f"system {k}: built limit has a non-closed image")

        _, cand = gen.mutate_candidate(ls)
        mu_a = verify_limit_axioms(c, cand)
        mu_g = verify_gluing_laws(c, cand)
        tally("mutant verdicts agree", mu_a.passed == mu_g.passed,
              f"system {k}: mutant verdicts disagree")
        closed = weak = True  # a failing mutant makes both implications vacuous
        if mu_a.passed:
            closed, weak = images_closed(cand).value, has_weak_topology(c, cand)
        else:
            counters["mutants failing (corpus)"] += 1
        tally("weak topology implies closed images", closed or not weak,
              f"system {k}: weak mutant with open image")
        tally("closed cover implies weak topology", weak or not closed,
              f"system {k}: closed cover without weak topology")

        if k % 5 == 0:
            ci = gen.cis(inductive=True, max_stages=3, max_points=5)
            li = build_fundamental(ci)
            reps = (functorial_invariance_check(ci, p, li) for p in range(3))
            good = all(rep.ok and rep.contravariant().ok for rep in reps)
            tally("invariance on inductive systems", good, f"system {k}: invariance failed")

    out.write(f"seed: {args.seed}\n")
    out.write(f"count: {args.count}\n")
    for name in counters:
        out.write(f"{name}: {counters[name]}\n")
    if failures:
        for f in failures:
            out.write(f"FAIL {f}\n")
        out.write("verdict: FAIL\n")
        return VERIFY_FAILED
    out.write("verdict: all theorem checks passed\n")
    return OK


def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each verb's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="cislim",
        description="closed injective systems of finite spaces and their fundamental limits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a system document against the axioms")
    p.add_argument("cis")

    p = sub.add_parser("limit", help="build the fundamental limit of a system")
    p.add_argument("cis")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--dot", default=None, help="also write the specialization digraph")

    p = sub.add_parser("verify", help="verify a limit candidate against a system")
    p.add_argument("cis")
    p.add_argument("limit")

    p = sub.add_parser("morphism", help="validate a morphism document")
    p.add_argument("morphism")
    p.add_argument("--induced", action="store_true", help="also build the induced map of limits")

    p = sub.add_parser("diagram-limit", help="direct limit of a diagram of systems")
    p.add_argument("diagram")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("homology", help="mod-2 betti numbers of stages and limit")
    p.add_argument("cis")
    p.add_argument("--pmax", type=int, default=2)

    p = sub.add_parser("invariance", help="(counter-)functorial invariance check")
    p.add_argument("cis")
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--co", dest="contravariant", action="store_true")

    p = sub.add_parser("gallery", help="emit a canonical example system")
    p.add_argument("name", choices=sorted(GALLERY_NAMES))
    p.add_argument("params", nargs="*")
    p.add_argument("--stationary", action="store_true")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("fuzz", help="run the seeded theorem sweep")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("search", help="look for non-fundamental limit topologies")
    p.add_argument("cis")
    p.add_argument("--cap", type=int, default=4)

    return parser, sub.choices


_parsers = functools.cache(build_parsers)


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    top, verbs = _parsers()
    if argv and argv[0] in verbs:
        # The verb's own parser reads the rest of argv, as the top parser
        # would have it do; an argument left over is refused by the top
        # parser under its usage, as parse_args refuses it.
        command = argv[0]
        args, extra = verbs[command].parse_known_args(argv[1:])
        if extra:
            top.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = top.parse_args(argv)
        command = args.command
    # The verb's function is looked up by name on each call, so a later
    # rebinding of a cmd_* function (as a tracer does) is seen.
    run = globals()[f"cmd_{command.replace('-', '_')}"]
    try:
        return run(args, out)
    except (interchange.InterchangeError, TopologyError) as e:
        out.write(f"input error: {e}\n")
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
