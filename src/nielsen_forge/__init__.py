"""Braid orbits on Nielsen classes of finite groups.

Compute components and cusps of reduced Nielsen classes under the
Hurwitz-monodromy action, their widths, types and sh-incidence pairings,
component genera as j-line covers, small lifting invariants through
central extensions, Frattini-cover checks, and finite level-to-level
tower graphs along chains of covers.
"""

from .braid import (
    BraidOrbit,
    CuspOrbit,
    ReducedClass,
    absolute_reduced_classes,
    apply_braid,
    braid_orbits,
    braid_orbits_r3,
    cusp_orbits,
    reduced_classes,
)
from .cusps import (
    ComponentDossier,
    CuspType,
    MiddleTwistOrbit,
    ShIncidence,
    classify_cusp,
    component_dossier,
    congruence_screen,
    cover_genus,
    genus,
    middle_twist_orbit,
    sh_incidence,
)
from .groups import (
    ConjClass,
    FiniteGroup,
    GroupHom,
    conjugacy_classes,
    generate,
    hom,
    is_p_perfect,
    quotient,
    reduce_p_center,
)
from .lifting import (
    CentralExtension,
    PairFactorization,
    JenningsProfile,
    LiftInvariant,
    factor_through_pairs,
    is_frattini_cover,
    jennings_dims,
    lifting_invariant,
    p_prime_lift,
    spin_parity,
)
from .nielsen import (
    ClassMultiset,
    InnerClass,
    NielsenTuple,
    absolute_classes,
    check_rationality,
    enumerate_nielsen,
    inner_classes,
    nielsen_inner_classes,
)
from .perm import compose, conjugate, cycles, format_cycles, inverse, parse
from .report import run_pipeline
from .tower import LevelMap, TowerGraph, build_graph, match_classes

__version__ = "0.1.0"
