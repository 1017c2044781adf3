"""Closed injective systems of finite topological spaces, their fundamental
limit spaces, the category of systems, and mod-2 homology functors."""

from .cis import (
    Cis,
    Cutoff,
    Stage,
    Stationary,
    composite,
    is_finitely_semicomponible,
    is_inductive,
    is_stationary,
    semicomponible,
    validate_cis,
)
from .finspace import (
    CtsMap,
    FinSpace,
    MapProfile,
    TopologyError,
    classify_map,
    components,
    final_space,
    find_homeomorphism,
    product,
    separation_profile,
    subspace,
)
from .limit import (
    AxiomReport,
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

__all__ = [name for name in dir() if not name.startswith("_")]
