"""Acceptance suite: one test per exit criterion, exact combinatorial checks.

Every test prints a single PASS/FAIL line (visible with `pytest -s` or in
failure output), and the two timed criteria assert their wall-clock budget.
"""

import io
import time
from contextlib import contextmanager

import pytest

from homology_oracles import complex_betti, cross_polytope_boundary, staircase_torus_complex
from cislim.cat import (
    CisDiagram,
    compose_morphisms,
    identity_morphism,
    induced_fundamental_map,
    check_limit_compatibility,
    cis_direct_limit,
)
from cislim.cis import is_finitely_semicomponible, validate_cis
from cislim.cli import main
from cislim.finspace import CtsMap, classify_map, compose, find_homeomorphism, separation_profile
from cislim.gallery import (
    build_example,
    interval_chain,
    non_semicomponible,
    sphere_chain,
    sphere_space,
    stationary_sphere,
    torus_chain,
    torus_space,
)
from cislim.homology import (
    betti_mod2,
    counter_functorial_check,
    functorial_invariance_check,
    module_colimit,
    module_limit,
    order_complex,
    stage_homology_sequence,
)
from cislim.interchange import (
    cis_from_doc,
    cis_to_doc,
    dumps,
    limit_from_doc,
    limit_to_doc,
)
from cislim.limit import (
    LimitSpace,
    build_fundamental,
    canonical_bijection,
    cover_profile,
    has_weak_topology,
    images_closed,
    is_perfect_map,
    verify_gluing_laws,
    verify_limit_axioms,
)
from cislim.randgen import FuzzGen, relabel_cis

GALLERY = [
    build_example("identity", "sierpinski", 3),
    build_example("identity", "point", 2),
    sphere_chain(2),
    stationary_sphere(2),
    torus_chain(2),
    interval_chain(4),
    non_semicomponible(),
]


@contextmanager
def criterion(n: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {title}")
        raise
    print(f"PASS criterion {n}: {title}")


def rebuilt_relabelled_candidate(gen, c, base_limit):
    """Rebuild the system under fresh names and express the result as a
    second limit candidate for the original system."""
    tables = gen.relabel_tables(c)
    ls2 = build_fundamental(relabel_cis(c, tables))
    phis = tuple(
        CtsMap(st.space, ls2.x, {p: phi(tables[i][p]) for p in st.space.points})
        for i, (st, phi) in enumerate(zip(c.stages, ls2.phis))
    )
    return LimitSpace(ls2.x, phis)


def test_criterion_01_construction_soundness():
    with criterion(1, "construction soundness on gallery plus 200 fuzzed systems"):
        start = time.time()
        gen = FuzzGen(20250810)
        systems = list(GALLERY) + [gen.cis(max_stages=4, max_points=6) for _ in range(200)]
        for c in systems:
            assert validate_cis(c).ok
            ls = build_fundamental(c)
            assert verify_limit_axioms(c, ls).passed
            assert verify_gluing_laws(c, ls).passed
            assert has_weak_topology(c, ls)
            assert images_closed(ls).value
        elapsed = time.time() - start
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_02_axiom_equivalence():
    with criterion(2, "verifier verdicts agree on every candidate incl. 50+ failing mutants"):
        gen = FuzzGen(4242)
        failing = 0
        examined = 0
        while failing < 50:
            assert examined < 400, "mutation corpus too tame"
            c = gen.cis()
            ls = build_fundamental(c)
            for cand in (ls, gen.mutate_candidate(ls)[1]):
                a = verify_limit_axioms(c, cand)
                b = verify_gluing_laws(c, cand)
                assert a.passed == b.passed
                examined += 1
                if not a.passed:
                    failing += 1


def test_criterion_03_uniqueness_of_the_limit():
    with criterion(3, "canonical bijection on 50 relabelled rebuilds: commuting homeomorphism"):
        gen = FuzzGen(99)
        for k in range(50):
            c = gen.cis()
            ls = build_fundamental(c)
            cand = rebuilt_relabelled_candidate(gen, c, ls)
            beta = canonical_bijection(c, ls, cand)
            for phi, psi in zip(ls.phis, cand.phis):
                for p in phi.source.points:
                    assert beta(phi(p)) == psi(p)
            prof = classify_map(beta)
            assert prof.embedding and prof.surjective  # homeomorphism
            cand2 = rebuilt_relabelled_candidate(gen, c, ls)
            ab = canonical_bijection(c, ls, cand)
            bc = canonical_bijection(c, cand, cand2)
            ac = canonical_bijection(c, ls, cand2)
            assert compose(bc, ab).assignment == ac.assignment


def test_criterion_04_functor_laws():
    with criterion(4, "induced-map functor: unit and composition laws on 50 pairs"):
        gen = FuzzGen(777)
        for k in range(50):
            c = gen.cis()
            ls = build_fundamental(c)
            unit = induced_fundamental_map(identity_morphism(c), ls, ls)
            assert unit.assignment == {p: p for p in ls.x.points}
            h = gen.morphism(c)
            k2 = gen.morphism(h.target)
            lx, ly, lz = ls, build_fundamental(h.target), build_fundamental(k2.target)
            lh = induced_fundamental_map(h, lx, ly)
            lk = induced_fundamental_map(k2, ly, lz)
            lkh = induced_fundamental_map(compose_morphisms(k2, h), lx, lz)
            assert compose(lk, lh).assignment == lkh.assignment


def test_criterion_05_direct_limits_of_diagrams():
    with criterion(5, "direct limits of 20 diagrams: cocone identities and compatibility"):
        gen = FuzzGen(31337)
        for k in range(20):
            c = gen.cis(max_stages=3, max_points=4)
            d = gen.diagram(c, length=3)
            res = cis_direct_limit(d)
            for m_idx in range(len(d.objects)):
                for n_idx in range(m_idx, len(d.objects)):
                    led = compose_morphisms(res.cocone[n_idx], d.hom(m_idx, n_idx))
                    assert [x.assignment for x in led.h] == [
                        x.assignment for x in res.cocone[m_idx].h
                    ]
            rep = check_limit_compatibility(d)
            assert rep.ok, rep.witnesses


def test_criterion_06_sphere_reproduction():
    with criterion(6, "sphere tower at truncation 4: model, betti, invariance"):
        start = time.time()
        c = sphere_chain(4)
        ls = build_fundamental(c)
        assert len(ls.x.points) == 10
        assert find_homeomorphism(ls.x, sphere_space(4)).status == "found"
        ours = betti_mod2(order_complex(ls.x), 4)
        _, oracle_cx = cross_polytope_boundary(4)
        assert ours == complex_betti(oracle_cx, 4) == [1, 0, 0, 0, 1]
        for p, expected in [(0, 1), (1, 0), (2, 0), (3, 0)]:
            rep = functorial_invariance_check(c, p, ls)
            assert rep.ok and rep.limit_dim == rep.module_dim == expected
        elapsed = time.time() - start
        assert elapsed < 5, f"took {elapsed:.1f}s"


def test_criterion_07_torus_analogue():
    with criterion(7, "torus model: betti against the product triangulation, invariance at 1"):
        ours = betti_mod2(order_complex(torus_space(2)), 2)
        assert ours == complex_betti(staircase_torus_complex(), 2) == [1, 2, 1]
        c = torus_chain(2)
        rep = functorial_invariance_check(c, 1)
        assert rep.ok and rep.limit_dim == rep.module_dim == 2


def test_criterion_08_covers_and_perfect_maps():
    with criterion(8, "finitely semicomponible and stationary suite: covers, perfect maps, transfer"):
        c = interval_chain(4)
        assert is_finitely_semicomponible(c).value
        ls = build_fundamental(c)
        prof = cover_profile(ls)
        assert prof.locally_finite and prof.closed_cover
        # closed locally finite cover forces the weak topology, over mutated candidates
        gen = FuzzGen(808)
        for k in range(150):
            cc = gen.cis()
            built = build_fundamental(cc)
            _, cand = gen.mutate_candidate(built)
            if verify_limit_axioms(cc, cand).passed and images_closed(cand).value:
                assert has_weak_topology(cc, cand)
        # projections are perfect: finitely semicomponible and stationary cases
        for system in (interval_chain(2), interval_chain(4)):
            assert is_perfect_map(build_fundamental(system).rho)
        for system in (stationary_sphere(2), build_example("identity", "sierpinski", 2, stationary=True)):
            assert is_perfect_map(build_fundamental(system).rho)
        # discrete property transfers to the limit
        for k in range(50):
            cd = gen.cis(discrete=True)
            assert separation_profile(build_fundamental(cd).x).discrete


def test_criterion_09_counter_functor_duality():
    with criterion(9, "cohomology dimensions equal homology dimensions; duality exact"):
        import numpy as np

        gen = FuzzGen(606)
        for k in range(40):
            c = gen.cis(inductive=True, max_stages=4, max_points=6)
            ls = build_fundamental(c)
            for p in range(3):
                seq = stage_homology_sequence(c, p)
                cdim, cocone = module_colimit(seq)
                ldim, cone = module_limit(seq)
                assert cdim == ldim
                for a, b in zip(cocone, cone):
                    assert np.array_equal(a.T, b)
                rep = functorial_invariance_check(c, p, ls)
                co = counter_functorial_check(c, p, ls)
                assert rep.ok and co.ok
                assert (rep.limit_dim, rep.module_dim) == (co.limit_dim, co.module_dim)


def test_criterion_10_determinism_and_round_trip(tmp_path):
    with criterion(10, "seeded reports byte-identical; every emitted document round-trips"):
        out1, out2 = io.StringIO(), io.StringIO()
        assert main(["fuzz", "--count", "40", "--seed", "5"], out1) == 0
        assert main(["fuzz", "--count", "40", "--seed", "5"], out2) == 0
        assert out1.getvalue() == out2.getvalue()

        # fresh processes have fresh hash randomization; bytes must still match
        import os
        import subprocess
        import sys
        from pathlib import Path

        import cislim

        # the children import the same cislim as this process, installed or not
        src = str(Path(cislim.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        cmd = [sys.executable, "-m", "cislim.cli", "fuzz", "--count", "15", "--seed", "9"]
        runs = [subprocess.run(cmd, capture_output=True, check=True, env=env) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.decode() != ""

        for c in GALLERY:
            doc = dumps(cis_to_doc(c))
            again = cis_from_doc(cis_to_doc(c))
            assert again == c and validate_cis(again).ok
            assert dumps(cis_to_doc(again)) == doc
            ls = build_fundamental(c)
            ldoc = dumps(limit_to_doc(ls))
            lagain = limit_from_doc(limit_to_doc(ls), c)
            assert verify_limit_axioms(c, lagain).passed
            assert dumps(limit_to_doc(lagain)) == ldoc
