"""Exact computer algebra for coinduction of finite-group representations.

The package builds, for a finite group G, a subgroup H, and an exact field
(the rationals or a prime field), the restriction/coinduction adjunction on
finite-dimensional representations, the commutative separable function ring
on the coset space, and the equivalence between H-representations and
modules over that ring.  Every asserted identity is checked as exact matrix
equality; the suite module turns those checks into a one-command verifier.
"""

from ._version import __version__
from .exactlin import (
    GF,
    QQ,
    Field,
    IdentityError,
    Matrix,
    column_factor,
    mat_kron,
    mat_mul,
    mat_sub,
    nullspace_basis,
    parse_field,
    span_basis,
)
from .groups import (
    CosetSpace,
    FiniteGroup,
    GroupError,
    Subgroup,
    group_from_cayley_table,
    group_from_permutations,
    load_group_json,
    right_cosets,
    subgroup_generated,
)
from .repcat import (
    Morphism,
    Rep,
    RepError,
    compose,
    hom_space_basis,
    identity_mor,
    random_hom,
    random_rep,
    restrict,
    restrict_mor,
    symmetry,
    tensor_mor,
    tensor_obj,
    unit_rep,
    zero_mor,
)
from .adjunction import (
    coind_mor,
    coind_obj,
    counit_eps,
    ind_counit,
    lax_iota,
    lax_lambda,
    lax_lambda_composite,
    projection_pi,
    projection_pi_inverse,
    section_xi,
    unit_eta,
)
from .monadring import (
    Monad,
    RingAxiomError,
    RingObject,
    monad_from_adjunction,
    monad_from_ring,
    monad_law_failures,
    monad_morphism_failures,
    monad_section_at,
    monad_separability_failures,
    ring_axiom_failures,
    ring_iso_failures,
    standard_ring,
)
from .eilenberg import (
    AModule,
    EMError,
    ModuleAxiomError,
    em_comparison,
    em_counit_iso,
    em_inverse_split,
    em_mor,
    em_unit_iso,
    extension_of_scalars_iso,
    free_module,
    module_axiom_failures,
    require_module_map,
    separable_summand,
    split_idempotent,
)
from .presets import load_preset, preset_names
from .suite import (
    CHECK_IDS,
    CORRUPTIONS,
    ConfigError,
    InternalError,
    SuiteConfig,
    SuiteReport,
    mutation_smoke,
    run_matrix,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
