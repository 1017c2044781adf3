"""The three workloads.  Each is a closed loop with one caller: every call
waits for the one before it, in one process and one thread.

A workload's `setup(seed, workdir)` builds its inputs; `run_pass(inputs,
rec)` makes one pass of calls through the recorder `rec`, which times each
call, records failed expectations against it, keeps outputs that later
passes must repeat, and queues oracle checks that run after the timed
passes.  Library functions are called through their modules so that the
traced run sees every call.
"""

from __future__ import annotations

import io
import json
import os

from cislim import cli, finspace, gallery, homology, interchange, limit
from cislim.cis import Cis, Cutoff, Stage
from cislim.randgen import FuzzGen

import oracles


class Workload:
    name: str
    # fixed per workload, so runs of different length compare, and placed
    # where the latency distribution is dense rather than in a gap between
    # kinds of call: the p99 of cli_mix rests on its ~8 slowest calls and
    # moves with the seed, the p98 on ~16
    tail_pct: int
    min_passes: int  # enough calls that at least 10 lie beyond tail_pct
    uses_seed: bool
    ladders: dict = {}  # span name -> (small item, large item) for growth_exp

    def setup(self, seed: int, workdir: str):
        raise NotImplementedError

    def run_pass(self, inputs, rec):
        raise NotImplementedError


# ---------------------------------------------------------------------------


class SphereTower(Workload):
    """`scripts/sphere_tower_demo.py 5`: homology is nearly all of it."""

    name = "sphere_tower"
    tail_pct = 95
    min_passes = 4
    uses_seed = False
    ladders = {"homology.betti_mod2": ("n=4", "n=5")}

    def setup(self, seed, workdir):
        return [(n, gallery.sphere_chain(n), gallery.sphere_space(n)) for n in range(6)]

    def run_pass(self, inputs, rec):
        for n, c, model in inputs:
            with rec.item(f"n={n}"):
                ls = rec.call(limit.build_fundamental, c)
                status = rec.call(finspace.find_homeomorphism, ls.x, model).status
                rec.expect(status == "found", f"n={n}: model match is {status}")
                pmax = max(n, 1)
                cx = rec.call(homology.order_complex, ls.x)
                betti = rec.call(homology.betti_mod2, cx, pmax)
                want = oracles.sphere_betti(n)
                rec.expect(betti == want, f"n={n}: betti {betti}, expected {want}")
                rec.later(
                    lambda x=ls.x, b=betti, p=pmax: oracles.betti(x.min_open, p) == b,
                    f"n={n}: limit betti disagrees with the bitmask oracle",
                )
                rec.keep((n, sorted(ls.x.points), betti))
                for p in range(pmax):
                    rep = rec.call(homology.functorial_invariance_check, c, p, ls)
                    rec.expect(rep.ok, f"n={n} p={p}: functorial check failed")
                    co = rec.call(homology.counter_functorial_check, c, p, ls)
                    rec.expect(co.ok, f"n={n} p={p}: counter-functorial check failed")
                    rec.keep((rep.render(), co.render()))


# ---------------------------------------------------------------------------


def _window(c: Cis, start: int, length: int) -> Cis:
    """Stages start .. start+length-1 of c as a cutoff system."""
    stages = list(c.stages[start:start + length])
    last = stages[-1]
    stages[-1] = Stage(last.space, last.y, None)
    return Cis(tuple(stages), Cutoff())


# Per stage, the points of a loose (non-inductive) draw and of its limit.
# Both vary by about 25% between draws, and the checks' cost follows them.
LOOSE_STAGE_POINTS = 5.0
LOOSE_LIMIT_POINTS = 1.75
LOOSE_TOLERANCE = 0.03


def _fuzz_system(gen: FuzzGen, length: int, inductive: bool) -> Cis:
    """A seeded system of exactly `length` stages: a window of consecutive
    stages of a longer `FuzzGen` draw, which is itself a valid system.

    A loose window is kept only when its stage and limit point counts are
    within LOOSE_TOLERANCE of the targets, so the seed changes which systems
    run, not how much work they are.  Inductive draws fill up to six points
    per stage within a few stages and need no such filter."""
    while True:
        c = gen.cis(max_stages=3 * length, stationary=False, inductive=inductive)
        n = c.stage_count
        if n < length:
            continue
        if inductive:
            return _window(c, 0, length)
        sizes = [len(st.space.points) for st in c.stages]
        glue = [len(st.y) for st in c.stages]
        for start in range(n - length + 1):
            stage_points = sum(sizes[start:start + length])
            limit_points = oracles.attaching_points(
                sizes[start:start + length], glue[start:start + length]
            )
            if (
                abs(stage_points / (length * LOOSE_STAGE_POINTS) - 1) <= LOOSE_TOLERANCE
                and abs(limit_points / (length * LOOSE_LIMIT_POINTS) - 1) <= LOOSE_TOLERANCE
            ):
                return _window(c, start, length)


class LongTower(Workload):
    """Long systems, where axiom checking (cubic in the stage count) is
    nearly all of it.  Every pass has 360 stages in six systems of 40 and
    80 stages; the seed changes the fuzzed systems, not their lengths."""

    name = "long_tower"
    tail_pct = 90
    min_passes = 4
    uses_seed = True
    ladders = {"limit.verify_limit_axioms": ("identity40", "identity80")}

    def setup(self, seed, workdir):
        gen = FuzzGen(seed)
        base = gallery.sphere_space(2)
        systems = []
        for length in (40, 80):
            systems.append((f"identity{length}", gallery.identity_system(base, length), 6))
        for inductive, tag in ((True, "inductive"), (False, "loose")):
            for length in (40, 80):
                systems.append((f"{tag}{length}", _fuzz_system(gen, length, inductive), None))
        out = []
        for label, c, points in systems:
            sizes = [len(st.space.points) for st in c.stages]
            glue = [len(st.y) for st in c.stages]
            want = oracles.attaching_points(sizes, glue)
            if points is not None and points != want:
                raise RuntimeError(f"{label}: point oracle gives {want}, expected {points}")
            out.append((label, c, want))
        return out

    def run_pass(self, inputs, rec):
        for label, c, want_points in inputs:
            with rec.item(label):
                # build_fundamental raises unless its own axiom and weak
                # topology checks pass, so a return is the axioms' verdict
                ls = rec.call(limit.build_fundamental, c)
                rec.expect(
                    len(ls.x.points) == want_points,
                    f"{label}: {len(ls.x.points)} limit points, expected {want_points}",
                )
                gl = rec.call(limit.verify_gluing_laws, c, ls)
                rec.expect(gl.passed, f"{label}: gluing laws disagree with the axioms")
                weak = rec.call(limit.has_weak_topology, c, ls)
                rec.expect(weak, f"{label}: no weak topology")
                closed = rec.call(limit.images_closed, ls)
                rec.expect(closed.value, f"{label}: open images {closed.open_image_stages}")
                prof = rec.call(limit.cover_profile, ls)
                rec.expect(prof.closed_cover, f"{label}: cover is not closed")
                rec.keep((label, sorted(ls.x.points), gl.render(), prof))


# ---------------------------------------------------------------------------

FUZZ_SEED = 7  # fixed: the verb's 200 systems are ~20% of a pass, too much seed variance

# gallery systems whose exhaustive search answers are worked examples:
# (name, params, cap, expected first line)
SEARCHES = (
    ("identity", ("point", 2), 4, "examined 1 topologies, found 0 non-fundamental limits"),
    ("identity", ("sierpinski", 2), 4, "examined 4 topologies, found 0 non-fundamental limits"),
    ("non_semicomponible", (), 4, "examined 29 topologies, found 1 non-fundamental limits"),
    ("sphere_chain", (2,), 3, "undecided: limit exceeds the cap of 3 points"),
)


class CliMix(Workload):
    """Every CLI verb in process on seeded JSON documents: the only workload
    through `interchange` and `cat`, with many tiny spaces."""

    name = "cli_mix"
    tail_pct = 98
    min_passes = 2
    uses_seed = True

    def setup(self, seed, workdir):
        gen = FuzzGen(seed)

        def write(name, doc):
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(interchange.dumps(doc))
            return path

        systems, morphisms, diagrams, searches = [], [], [], []
        for k in range(150):
            # every third system is drawn inductive and gets the invariance
            # verbs; a general draw can also glue along every stage by chance,
            # but running invariance on those would make the work seed-dependent
            designed = k % 3 == 0
            c = gen.cis(inductive=True, max_stages=3, max_points=5) if designed else gen.cis()
            inductive = all(st.y == st.space.points for st in c.stages)
            want = oracles.attaching_points(
                [len(st.space.points) for st in c.stages], [len(st.y) for st in c.stages]
            )
            path = write(f"s{k}.json", interchange.cis_to_doc(c))
            systems.append((k, path, inductive, designed, c.stage_count, want))
            if designed:
                morphisms.append((k, write(f"m{k}.json", interchange.morphism_to_doc(gen.morphism(c)))))
            if k % 5 == 1:
                diagrams.append((k, write(f"d{k}.json", interchange.diagram_to_doc(gen.diagram(c, 3)))))
        for k, (name, params, cap, first) in enumerate(SEARCHES):
            doc = interchange.cis_to_doc(gallery.build_example(name, *params))
            searches.append((k, write(f"g{k}.json", doc), cap, first))
        return systems, morphisms, diagrams, searches

    def run_pass(self, inputs, rec):
        systems, morphisms, diagrams, searches = inputs

        def verb(*argv):
            out = io.StringIO()
            status = rec.call(cli.main, list(argv), out)
            rec.expect(status == 0, f"{' '.join(argv)}: exit {status}, expected 0")
            return out.getvalue()

        for k, path, inductive, designed, stages, want in systems:
            with rec.item(f"s{k}"):
                lim = path[:-5] + ".limit.json"
                text = verb("validate", path)
                flag = f"inductive: {'yes' if inductive else 'no'}"
                rec.expect(flag in text.splitlines(), f"s{k}: validate lacks '{flag}'")
                text = verb("limit", path, "-o", lim)
                line = f"fundamental limit: {want} points over {stages} stages\n"
                rec.expect(text == line, f"s{k}: limit printed {text!r}, expected {line!r}")
                with open(lim, encoding="utf-8") as fh:
                    limit_doc = fh.read()
                rec.keep(limit_doc)
                text = verb("verify", path, lim)
                rec.expect("verdict: fundamental limit space\n" in text, f"s{k}: verify verdict")
                text = verb("homology", path, "--pmax", "2")
                rec.keep(text)
                rec.later(
                    lambda d=limit_doc, t=text: _limit_betti_line(d) in t.splitlines(),
                    f"s{k}: limit betti disagrees with the bitmask oracle",
                )
                if designed:
                    for co in ((), ("--co",)):
                        text = verb("invariance", path, "--p", "1", *co)
                        rec.expect(text.rstrip().endswith(": pass"), f"s{k}: invariance {co}")
        for k, path in morphisms:
            with rec.item(f"m{k}"):
                text = verb("morphism", path, "--induced")
                lines = text.splitlines()
                rec.expect(lines[0] == "valid cis-morphism", f"m{k}: {lines[0]}")
                rec.expect(
                    "continuous=True closed=True" in lines[1], f"m{k}: induced map {lines[1]}"
                )
                rec.keep(text)
        for k, path in diagrams:
            with rec.item(f"d{k}"):
                text = verb("diagram-limit", path, "-o", path[:-5] + ".limit.json")
                rec.expect(text.count(": pass\n") == 3, f"d{k}: compatibility {text!r}")
                rec.keep(text)
        for k, path, cap, first in searches:
            with rec.item(f"g{k}"):
                text = verb("search", path, "--cap", str(cap))
                rec.expect(text.splitlines()[0] == first, f"g{k}: search printed {text!r}")
                rec.keep(text)
        with rec.item("fuzz"):
            text = verb("fuzz", "--count", "200", "--seed", str(FUZZ_SEED))
            rec.expect(text.endswith("verdict: all theorem checks passed\n"), "fuzz verdict")
            rec.keep(text)


def _limit_betti_line(limit_doc: str) -> str:
    min_open = json.loads(limit_doc)["space"]["min_open"]
    return f"fundamental limit: betti {oracles.betti(min_open, 2)}"


WORKLOADS = {w.name: w for w in (SphereTower(), LongTower(), CliMix())}
