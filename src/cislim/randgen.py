"""Seeded random generators for systems, morphisms, diagrams and mutated
limit candidates.

Validity by construction: stage spaces are random preorders (transitive
closures of sparse digraphs), gluing sets are unions of point closures,
and each next stage is grown target-first around a closed copy of the
current gluing subspace, so the attachment is automatically a closed
injective embedding.  Everything is driven by one `random.Random(seed)`
and iterates over sorted point lists only, keeping runs reproducible
across processes.
"""

from __future__ import annotations

import random

from .cat import CisDiagram, CisMorphism, push_forward, validate_morphism
from .cis import Cis, Cutoff, Stationary, make_cis, validate_cis
from .finspace import CtsMap, FinSpace, _reach, identity_map, quotient, subspace
from .limit import LimitSpace


class FuzzGen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._fresh = 0

    # ---------- spaces ----------

    def space(self, max_points: int = 6, prefix: str = "x", discrete: bool = False) -> FinSpace:
        n = self.rng.randint(1, max_points)
        labels = [f"{prefix}{k}" for k in range(n)]
        edges = {p: set() for p in labels}
        if not discrete:
            for _ in range(self.rng.randint(0, 2 * n)):
                i = self.rng.randrange(n)
                j = self.rng.randrange(n)
                edges[labels[i]].add(labels[j])
        return FinSpace(frozenset(labels), _reach(edges))  # U_p: what a search from p reaches

    def closed_subset(self, space: FinSpace, allow_empty: bool = True):
        pts = sorted(space.points)
        lo = 0 if allow_empty else 1
        k = self.rng.randint(lo, len(pts))
        seeds = self.rng.sample(pts, k)
        out = frozenset()
        for s in seeds:
            out |= space.closure({s})
        return out

    # ---------- systems ----------

    def _grow_stage(self, glue_sub: FinSpace, max_points: int, prefix: str, discrete: bool):
        """A new stage space containing a closed copy of glue_sub, plus the
        relabelling of the copy.  New points are never below copy points,
        which keeps the copy closed and its subspace topology intact."""
        copy_label = {p: f"{prefix}c{k}" for k, p in enumerate(sorted(glue_sub.points))}
        room = max(0, max_points - len(copy_label))
        fresh = self.space(max_points=room, prefix=f"{prefix}n", discrete=discrete) if room else None
        fresh_pts = sorted(fresh.points) if fresh else []

        grown = {}
        for p in sorted(glue_sub.points):
            picked = [q for q in fresh_pts if not discrete and self.rng.random() < 0.4]
            grown[p] = frozenset().union(*(fresh.min_open[q] for q in picked))

        points = set(copy_label.values()) | set(fresh_pts)
        min_open = {}
        for p in sorted(glue_sub.points):
            # q in U_p gives U_q within U_p, so one union keeps the copy order monotone
            above = frozenset().union(*(grown[q] for q in glue_sub.min_open[p]))
            min_open[copy_label[p]] = frozenset(copy_label[q] for q in glue_sub.min_open[p]) | above
        if fresh:
            for q in fresh_pts:
                min_open[q] = fresh.min_open[q]
        return FinSpace(frozenset(points), min_open), copy_label

    def cis(
        self,
        max_stages: int = 4,
        max_points: int = 6,
        stationary: bool | None = None,
        discrete: bool = False,
        inductive: bool = False,
    ) -> Cis:
        if stationary is None:
            stationary = self.rng.random() < 0.3
        n_stages = self.rng.randint(1, max_stages)
        self._fresh += 1
        run = self._fresh

        spaces = [self.space(max_points=max_points, prefix=f"s{run}a", discrete=discrete)]
        ys = []
        attach: list[dict] = []
        for i in range(n_stages - 1):
            sp = spaces[-1]
            if inductive:
                y = sp.points
            else:
                y = self.closed_subset(sp, allow_empty=not stationary)
            ys.append(y)
            glue_sub, _ = subspace(sp, y)
            nxt, copy_label = self._grow_stage(
                glue_sub, max_points, prefix=f"s{run}{chr(98 + i)}", discrete=discrete
            )
            spaces.append(nxt)
            attach.append({p: copy_label[p] for p in y})
        last = spaces[-1]
        ys.append(last.points if (stationary or inductive) else self.closed_subset(last))

        tail = Stationary(n_stages - 1) if stationary else Cutoff()
        c = make_cis(spaces, ys, attach, tail)
        rep = validate_cis(c)
        if not rep.ok:
            raise RuntimeError("generator bug: produced an invalid system\n" + rep.render())
        return c

    def relabel_tables(self, c: Cis) -> list[dict]:
        """Fresh stagewise point names in shuffled order."""
        self._fresh += 1
        run = self._fresh
        tables = []
        for i, st in enumerate(c.stages):
            pts = sorted(st.space.points)
            slots = list(range(len(pts)))
            self.rng.shuffle(slots)
            tables.append({p: f"r{run}s{i}p{slots[k]}" for k, p in enumerate(pts)})
        return tables

    def relabelled(self, c: Cis) -> Cis:
        """The same system under fresh stagewise point names."""
        return relabel_cis(c, self.relabel_tables(c))

    # ---------- morphisms ----------

    def collapse_morphism(self, c: Cis) -> CisMorphism:
        """Collapse one closed chunk per stage, chosen backwards so the
        collapse commutes with the attachments and the induced attachments
        stay injective: each chunk is the pull-back of the next one through
        f_i, plus a closed set that misses Y_i or nothing.  The pull-back is
        closed, since f_i is continuous on the closed Y_i, so the chunk is."""
        n = c.stage_count
        chunks: list[frozenset] = [frozenset()] * n
        chunks[n - 1] = self.closed_subset(c.stages[n - 1].space)
        for i in range(n - 2, -1, -1):
            st = c.stages[i]
            pulled = st.f.preimage(chunks[i + 1])
            extra = self.closed_subset(st.space)
            chunks[i] = pulled if extra & st.y else pulled | extra
        return collapse_cis_morphism(c, chunks)

    def relabel_morphism(self, c: Cis) -> CisMorphism:
        tables = self.relabel_tables(c)
        target = relabel_cis(c, tables)
        h = tuple(
            CtsMap(st.space, tt.space, dict(tables[i]))
            for i, (st, tt) in enumerate(zip(c.stages, target.stages))
        )
        return CisMorphism(c, target, h)

    def morphism(self, c: Cis) -> CisMorphism:
        roll = self.rng.random()
        if roll < 0.4:
            return self.relabel_morphism(c)
        if roll < 0.8:
            return self.collapse_morphism(c)
        return point_system(c)[1]

    def composable_pair(self, c: Cis) -> tuple[CisMorphism, CisMorphism]:
        first = self.morphism(c)
        second = self.morphism(first.target)
        return first, second

    def diagram(self, c: Cis, length: int = 3) -> CisDiagram:
        objects = [c]
        arrows = []
        for _ in range(length - 1):
            m = self.morphism(objects[-1])
            arrows.append(m)
            objects.append(m.target)
        return CisDiagram(tuple(objects), tuple(arrows))

    # ---------- mutations ----------

    def mutate_candidate(self, ls: LimitSpace) -> tuple[str, LimitSpace]:
        """A structurally well-formed variation of a limit candidate; most
        variations break one of the axioms or the weak topology."""
        kind = self.rng.choice(["coarsen", "swap", "redirect", "pad"])
        if kind == "coarsen":
            pts = sorted(ls.x.points)
            x = self.rng.choice(pts)
            outside = sorted(ls.x.points - ls.x.min_open[x])
            if not outside:
                return self.mutate_candidate(ls) if len(pts) > 1 else ("noop", ls)
            y = self.rng.choice(outside)
            grown = {p: set(u) for p, u in ls.x.min_open.items()}
            for p in pts:
                if x in grown[p]:
                    grown[p] |= ls.x.min_open[y]
            space = FinSpace(ls.x.points, {p: frozenset(u) for p, u in grown.items()})
            phis = tuple(CtsMap(f.source, space, f.assignment) for f in ls.phis)
            return "coarsen", LimitSpace(space, phis)
        if kind == "swap":
            k = self.rng.randrange(len(ls.phis))
            phi = ls.phis[k]
            pts = sorted(phi.source.points)
            if len(pts) < 2:
                return ("noop", ls)
            a, b = self.rng.sample(pts, 2)
            asg = dict(phi.assignment)
            asg[a], asg[b] = asg[b], asg[a]
            phis = list(ls.phis)
            phis[k] = CtsMap(phi.source, phi.target, asg)
            return "swap", LimitSpace(ls.x, tuple(phis))
        if kind == "redirect":
            k = self.rng.randrange(len(ls.phis))
            phi = ls.phis[k]
            p = self.rng.choice(sorted(phi.source.points))
            q = self.rng.choice(sorted(ls.x.points))
            asg = dict(phi.assignment)
            asg[p] = q
            phis = list(ls.phis)
            phis[k] = CtsMap(phi.source, phi.target, asg)
            return "redirect", LimitSpace(ls.x, tuple(phis))
        extra = f"mut{self._fresh}island"
        self._fresh += 1
        space = FinSpace(
            ls.x.points | {extra},
            {**ls.x.min_open, extra: frozenset({extra})},
        )
        phis = tuple(CtsMap(f.source, space, f.assignment) for f in ls.phis)
        return "pad", LimitSpace(space, phis)


def relabel_cis(c: Cis, tables: list[dict]) -> Cis:
    """Apply per-stage point renamings to a system."""
    spaces = []
    for st, tab in zip(c.stages, tables):
        spaces.append(
            FinSpace(
                frozenset(tab.values()),
                {tab[p]: frozenset(tab[q] for q in st.space.min_open[p]) for p in st.space.points},
            )
        )
    return push_forward([(c, tables)], spaces, c.tail)


def collapse_cis_morphism(c: Cis, chunks: list[frozenset]) -> CisMorphism:
    """Collapse chunks[i] of stage i to one point, with the induced system
    as target.  Chunks must be closed and compatible with the attachments
    (the pull-back of a chunk through f_i inside Y_i is the previous chunk's
    trace), or the push-forward raises a TopologyError naming the stage;
    a collapse that then fails validation is a generator bug."""
    targets = []
    projections = []
    for st, chunk in zip(c.stages, chunks):
        if len(chunk) <= 1:
            targets.append(st.space)
            projections.append(identity_map(st.space))
            continue
        parts = [chunk] + [{p} for p in st.space.points - chunk]
        q_space, proj = quotient(st.space, parts)
        targets.append(q_space)
        projections.append(proj)
    target = push_forward([(c, [proj.assignment for proj in projections])], targets, c.tail)
    morph = CisMorphism(c, target, tuple(projections))
    mrep = validate_morphism(morph)
    if not mrep.ok:
        raise RuntimeError("generator bug: collapse is not a cis-morphism\n" + mrep.render())
    return morph


def point_system(c: Cis) -> tuple[Cis, CisMorphism]:
    """The one-point-per-stage system and the collapse onto it."""
    pt = FinSpace(frozenset({"*"}), {"*": frozenset({"*"})})
    n = c.stage_count
    target = make_cis([pt] * n, [{"*"}] * n, [{"*": "*"}] * (n - 1), c.tail)
    h = tuple(
        CtsMap(st.space, pt, {p: "*" for p in st.space.points}) for st in c.stages
    )
    return target, CisMorphism(c, target, h)
