"""JSON interchange documents for spaces, systems, limits, morphisms and
diagrams, plus DOT export of the specialization preorder.

Loaders raise InterchangeError carrying the JSON path of the offending
field; space-level invariant violations keep the underlying diagnostic,
which names the offending point.
"""

from __future__ import annotations

import json

from .cat import CisDiagram, CisMorphism
from .cis import Cis, Cutoff, Stationary, make_stage
from .finspace import CtsMap, FinSpace, TopologyError
from .limit import LimitSpace


class InterchangeError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class _at:
    """A context that re-raises a TopologyError as an InterchangeError at path
    (a class: a generator-based context costs about three times as much)."""

    def __init__(self, path: str):
        self.path = path

    def __enter__(self):
        return self

    def __exit__(self, kind, err, tb):
        if isinstance(err, TopologyError):
            raise InterchangeError(self.path, str(err)) from err


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise InterchangeError(path, message)


def _str_list(doc, path) -> list[str]:
    _expect(isinstance(doc, list) and all(isinstance(x, str) for x in doc), path,
            "expected a list of point ids")
    return doc


def _str_map(doc, path) -> dict[str, str]:
    _expect(
        isinstance(doc, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in doc.items()),
        path,
        "expected an id-to-id mapping",
    )
    return doc


# ---------------------------------------------------------------------------
# spaces


def space_to_doc(space: FinSpace) -> dict:
    return {
        "points": sorted(space.points),
        "min_open": {p: sorted(space.min_open[p]) for p in sorted(space.points)},
    }


def space_from_doc(doc, path: str = "space") -> FinSpace:
    _expect(isinstance(doc, dict), path, "expected an object")
    _expect("points" in doc and "min_open" in doc, path, "needs 'points' and 'min_open'")
    points = _str_list(doc["points"], f"{path}.points")
    _expect(isinstance(doc["min_open"], dict), f"{path}.min_open", "expected an object")
    min_open = {
        k: frozenset(_str_list(v, f"{path}.min_open.{k}"))
        for k, v in doc["min_open"].items()
    }
    with _at(path):
        return FinSpace(frozenset(points), min_open)


# ---------------------------------------------------------------------------
# systems


def cis_to_doc(c: Cis) -> dict:
    stages = []
    for st in c.stages:
        entry = {"space": space_to_doc(st.space), "y": sorted(st.y)}
        if st.f is not None:
            entry["f"] = {p: st.f(p) for p in sorted(st.y)}
        stages.append(entry)
    if isinstance(c.tail, Stationary):
        tail = {"kind": "stationary", "n0": c.tail.n0}
    else:
        tail = {"kind": "cutoff"}
    return {"stages": stages, "tail": tail}


def cis_from_doc(doc, path: str = "cis") -> Cis:
    _expect(isinstance(doc, dict), path, "expected an object")
    _expect("stages" in doc and "tail" in doc, path, "needs 'stages' and 'tail'")
    raw_stages = doc["stages"]
    _expect(isinstance(raw_stages, list) and raw_stages, f"{path}.stages", "expected a nonempty list")
    spaces = []
    for i, st in enumerate(raw_stages):
        _expect(isinstance(st, dict) and "space" in st and "y" in st, f"{path}.stages[{i}]",
                "each stage needs 'space' and 'y'")
        spaces.append(space_from_doc(st["space"], f"{path}.stages[{i}].space"))
    stages = []
    for i, st in enumerate(raw_stages):
        y = frozenset(_str_list(st["y"], f"{path}.stages[{i}].y"))
        last = i == len(raw_stages) - 1
        f_doc = st.get("f")
        if last:
            _expect(f_doc in (None, {}), f"{path}.stages[{i}].f", "last stage carries no attachment")
            nxt, asg = None, None
        else:
            _expect(f_doc is not None, f"{path}.stages[{i}].f", "missing attachment")
            asg = _str_map(f_doc, f"{path}.stages[{i}].f")
            nxt = spaces[i + 1]
        with _at(f"{path}.stages[{i}]"):
            stages.append(make_stage(spaces[i], y, nxt, asg))
    tail_doc = doc["tail"]
    _expect(isinstance(tail_doc, dict) and "kind" in tail_doc, f"{path}.tail", "needs a 'kind'")
    if tail_doc["kind"] == "stationary":
        # bool is a subclass of int, and true is no stage index
        _expect(type(tail_doc.get("n0")) is int, f"{path}.tail.n0", "expected an integer")
        tail = Stationary(tail_doc["n0"])
    elif tail_doc["kind"] == "cutoff":
        tail = Cutoff()
    else:
        raise InterchangeError(f"{path}.tail.kind", f"unknown tail kind {tail_doc['kind']!r}")
    with _at(path):
        return Cis(tuple(stages), tail)


# ---------------------------------------------------------------------------
# limits


def limit_to_doc(ls: LimitSpace) -> dict:
    return {
        "space": space_to_doc(ls.x),
        "phis": [
            {p: phi(p) for p in sorted(phi.source.points)} for phi in ls.phis
        ],
    }


def limit_from_doc(doc, c: Cis, path: str = "limit") -> LimitSpace:
    """Limit documents carry assignments only; sources come from the system."""
    _expect(isinstance(doc, dict), path, "expected an object")
    _expect("space" in doc and "phis" in doc, path, "needs 'space' and 'phis'")
    space = space_from_doc(doc["space"], f"{path}.space")
    raw = doc["phis"]
    _expect(isinstance(raw, list), f"{path}.phis", "expected a list")
    _expect(
        len(raw) == c.stage_count,
        f"{path}.phis",
        f"got {len(raw)} structure maps for {c.stage_count} stages",
    )
    phis = []
    for i, m in enumerate(raw):
        asg = _str_map(m, f"{path}.phis[{i}]")
        with _at(f"{path}.phis[{i}]"):
            phis.append(CtsMap(c.stages[i].space, space, asg))
    with _at(path):
        return LimitSpace(space, tuple(phis))


# ---------------------------------------------------------------------------
# morphisms and diagrams


def morphism_to_doc(m: CisMorphism, embed_systems: bool = True) -> dict:
    doc = {"h": [{p: hi(p) for p in sorted(hi.source.points)} for hi in m.h]}
    if embed_systems:
        doc["source"] = cis_to_doc(m.source)
        doc["target"] = cis_to_doc(m.target)
    return doc


def morphism_from_doc(
    doc, path: str = "morphism", source: Cis | None = None, target: Cis | None = None
) -> CisMorphism:
    _expect(isinstance(doc, dict) and "h" in doc, path, "needs 'h'")
    if source is None:
        _expect("source" in doc, f"{path}.source", "standalone morphisms embed their source")
        source = cis_from_doc(doc["source"], f"{path}.source")
    where = path  # a diagram arrow's target is the next object
    if target is None:
        _expect("target" in doc, f"{path}.target", "standalone morphisms embed their target")
        target = cis_from_doc(doc["target"], f"{path}.target")
        where = f"{path}.target"
    _expect(
        target.stage_count == source.stage_count,
        where,
        f"target has {target.stage_count} stages, source has {source.stage_count}",
    )
    raw = doc["h"]
    _expect(isinstance(raw, list), f"{path}.h", "expected a list")
    _expect(
        len(raw) == source.stage_count,
        f"{path}.h",
        f"got {len(raw)} stage maps for {source.stage_count} stages",
    )
    h = []
    for i, m in enumerate(raw):
        asg = _str_map(m, f"{path}.h[{i}]")
        with _at(f"{path}.h[{i}]"):
            h.append(CtsMap(source.stages[i].space, target.stages[i].space, asg))
    with _at(path):
        return CisMorphism(source, target, tuple(h))


def diagram_to_doc(d: CisDiagram) -> dict:
    return {
        "objects": [cis_to_doc(o) for o in d.objects],
        "arrows": [morphism_to_doc(a, embed_systems=False) for a in d.arrows],
    }


def diagram_from_doc(doc, path: str = "diagram") -> CisDiagram:
    _expect(isinstance(doc, dict), path, "expected an object")
    _expect("objects" in doc and "arrows" in doc, path, "needs 'objects' and 'arrows'")
    raw_objects = doc["objects"]
    _expect(isinstance(raw_objects, list) and raw_objects, f"{path}.objects",
            "expected a nonempty list")
    objects = [cis_from_doc(o, f"{path}.objects[{n}]") for n, o in enumerate(raw_objects)]
    raw_arrows = doc["arrows"]
    _expect(isinstance(raw_arrows, list), f"{path}.arrows", "expected a list")
    _expect(
        len(raw_arrows) == len(objects) - 1,
        f"{path}.arrows",
        "need exactly one arrow between consecutive objects",
    )
    arrows = [
        morphism_from_doc(a, f"{path}.arrows[{n}]", source=objects[n], target=objects[n + 1])
        for n, a in enumerate(raw_arrows)
    ]
    with _at(path):
        return CisDiagram(tuple(objects), tuple(arrows))


# ---------------------------------------------------------------------------
# rendering


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def to_dot(space: FinSpace, name: str = "specialization") -> str:
    """The specialization preorder as a DOT digraph, transitively reduced:
    an edge y -> x whenever y sits in U_x with no third point between."""
    lines = [f"digraph {json.dumps(name)} {{"]
    for p in sorted(space.points):
        lines.append(f"  {json.dumps(p)};")
    for x in sorted(space.points):
        for y in sorted(space.min_open[x]):
            if y == x:
                continue
            skip = any(
                z not in (x, y) and y in space.min_open[z] and z in space.min_open[x]
                for z in space.points
            )
            if not skip:
                lines.append(f"  {json.dumps(y)} -> {json.dumps(x)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
