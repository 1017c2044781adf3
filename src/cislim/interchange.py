"""JSON interchange documents for spaces, systems, limits, morphisms and
diagrams, plus DOT export of the specialization preorder.

Loaders raise InterchangeError carrying the JSON path of the offending
field; space-level invariant violations keep the underlying diagnostic,
which names the offending point.
"""

from __future__ import annotations

import json
from itertools import chain, repeat

from .cat import CisDiagram, CisMorphism
from .cis import Cis, Cutoff, Stationary, make_stage
from .finspace import CtsMap, FinSpace, TopologyError
from .limit import LimitSpace


class InterchangeError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _built(path: str, make, *args):
    """make(*args), with a TopologyError re-raised as an InterchangeError at path."""
    try:
        return make(*args)
    except TopologyError as e:
        raise InterchangeError(path, str(e)) from e


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise InterchangeError(path, message)


# The loaders format a JSON path only once a check has failed, and test the
# items of a list or mapping in one C-level pass.
_STRS, _LISTS = repeat(str), repeat(list)
_NOT_IDS = "expected a list of point ids"


def _str_list(doc) -> bool:
    """Whether doc is a list of point ids."""
    return isinstance(doc, list) and all(map(isinstance, doc, _STRS))


def _str_map(doc) -> bool:
    """Whether doc is an id-to-id mapping."""
    return (
        isinstance(doc, dict)
        and all(map(isinstance, doc, _STRS))
        and all(map(isinstance, doc.values(), _STRS))
    )


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
    points, raw = doc["points"], doc["min_open"]
    if not _str_list(points):
        raise InterchangeError(f"{path}.points", _NOT_IDS)
    if not isinstance(raw, dict):
        raise InterchangeError(f"{path}.min_open", "expected an object")
    opens = raw.values()
    if not (
        all(map(isinstance, opens, _LISTS))
        and all(map(isinstance, chain.from_iterable(opens), _STRS))
    ):
        k = next(k for k, v in raw.items() if not _str_list(v))
        raise InterchangeError(f"{path}.min_open.{k}", _NOT_IDS)
    return _built(path, FinSpace, points, raw)  # the space copies each list


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
    if not (isinstance(raw_stages, list) and raw_stages):
        raise InterchangeError(f"{path}.stages", "expected a nonempty list")
    spaces = []
    for i, st in enumerate(raw_stages):
        if not (isinstance(st, dict) and "space" in st and "y" in st):
            raise InterchangeError(f"{path}.stages[{i}]", "each stage needs 'space' and 'y'")
        spaces.append(space_from_doc(st["space"], f"{path}.stages[{i}].space"))
    stages, last = [], len(raw_stages) - 1
    try:  # a TopologyError names the stage i being built
        for i, st in enumerate(raw_stages):
            y = st["y"]
            if not _str_list(y):
                raise InterchangeError(f"{path}.stages[{i}].y", _NOT_IDS)
            f_doc = st.get("f")
            if i == last:
                if f_doc not in (None, {}):
                    raise InterchangeError(
                        f"{path}.stages[{i}].f", "last stage carries no attachment"
                    )
                stages.append(make_stage(spaces[i], y, None, None))
            elif f_doc is None:
                raise InterchangeError(f"{path}.stages[{i}].f", "missing attachment")
            elif not _str_map(f_doc):
                raise InterchangeError(f"{path}.stages[{i}].f", "expected an id-to-id mapping")
            else:
                stages.append(make_stage(spaces[i], y, spaces[i + 1], f_doc))
    except TopologyError as e:
        raise InterchangeError(f"{path}.stages[{i}]", str(e)) from e
    tail_doc = doc["tail"]
    if not (isinstance(tail_doc, dict) and "kind" in tail_doc):
        raise InterchangeError(f"{path}.tail", "needs a 'kind'")
    if tail_doc["kind"] == "stationary":
        # bool is a subclass of int, and true is no stage index
        if type(tail_doc.get("n0")) is not int:
            raise InterchangeError(f"{path}.tail.n0", "expected an integer")
        tail = Stationary(tail_doc["n0"])
    elif tail_doc["kind"] == "cutoff":
        tail = Cutoff()
    else:
        raise InterchangeError(f"{path}.tail.kind", f"unknown tail kind {tail_doc['kind']!r}")
    return _built(path, Cis, tuple(stages), tail)


def _stage_maps(doc, path: str, key: str, what: str, c: Cis, targets) -> tuple[CtsMap, ...]:
    """doc[key] read as one map per stage of c, into the matching space of targets."""
    raw = doc[key]
    if not isinstance(raw, list):
        raise InterchangeError(f"{path}.{key}", "expected a list")
    if len(raw) != c.stage_count:
        raise InterchangeError(
            f"{path}.{key}", f"got {len(raw)} {what} for {c.stage_count} stages"
        )
    maps = []
    try:  # a TopologyError names the map i being built
        for i, (m, st, target) in enumerate(zip(raw, c.stages, targets)):
            if not _str_map(m):
                raise InterchangeError(f"{path}.{key}[{i}]", "expected an id-to-id mapping")
            maps.append(CtsMap(st.space, target, m))
    except TopologyError as e:
        raise InterchangeError(f"{path}.{key}[{i}]", str(e)) from e
    return tuple(maps)


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
    phis = _stage_maps(doc, path, "phis", "structure maps", c, repeat(space))
    return _built(path, LimitSpace, space, phis)


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
        if "source" not in doc:
            raise InterchangeError(f"{path}.source", "standalone morphisms embed their source")
        source = cis_from_doc(doc["source"], f"{path}.source")
    embedded = target is None  # a diagram arrow's target is the next object
    if embedded:
        if "target" not in doc:
            raise InterchangeError(f"{path}.target", "standalone morphisms embed their target")
        target = cis_from_doc(doc["target"], f"{path}.target")
    if target.stage_count != source.stage_count:
        raise InterchangeError(
            f"{path}.target" if embedded else path,
            f"target has {target.stage_count} stages, source has {source.stage_count}",
        )
    h = _stage_maps(doc, path, "h", "stage maps", source, (st.space for st in target.stages))
    return _built(path, CisMorphism, source, target, h)


def diagram_to_doc(d: CisDiagram) -> dict:
    return {
        "objects": [cis_to_doc(o) for o in d.objects],
        "arrows": [morphism_to_doc(a, embed_systems=False) for a in d.arrows],
    }


def diagram_from_doc(doc, path: str = "diagram") -> CisDiagram:
    _expect(isinstance(doc, dict), path, "expected an object")
    _expect("objects" in doc and "arrows" in doc, path, "needs 'objects' and 'arrows'")
    raw_objects = doc["objects"]
    if not (isinstance(raw_objects, list) and raw_objects):
        raise InterchangeError(f"{path}.objects", "expected a nonempty list")
    objects = [cis_from_doc(o, f"{path}.objects[{n}]") for n, o in enumerate(raw_objects)]
    raw_arrows = doc["arrows"]
    if not isinstance(raw_arrows, list):
        raise InterchangeError(f"{path}.arrows", "expected a list")
    if len(raw_arrows) != len(objects) - 1:
        raise InterchangeError(
            f"{path}.arrows", "need exactly one arrow between consecutive objects"
        )
    arrows = [
        morphism_from_doc(a, f"{path}.arrows[{n}]", source=objects[n], target=objects[n + 1])
        for n, a in enumerate(raw_arrows)
    ]
    return _built(path, CisDiagram, tuple(objects), tuple(arrows))


# ---------------------------------------------------------------------------
# rendering


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def to_dot(space: FinSpace) -> str:
    """The specialization preorder as a DOT digraph, transitively reduced:
    an edge y -> x whenever y sits in U_x and no U_z lies strictly between
    U_y and U_x.  Points sharing a minimal open set get edges both ways, so
    the edges close to the preorder on spaces that are not T0 too."""
    mo = space.min_open
    lines = ['digraph "specialization" {']
    for p in sorted(space.points):
        lines.append(f"  {json.dumps(p)};")
    for x in sorted(space.points):
        for y in sorted(mo[x]):
            if y == x:
                continue
            skip = any(mo[y] < mo[z] < mo[x] for z in space.points)
            if not skip:
                lines.append(f"  {json.dumps(y)} -> {json.dumps(x)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
