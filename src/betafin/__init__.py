"""Exact beta-expansion and finiteness-property toolkit.

Everything is exact rational arithmetic over Q(beta): expansions and
admissibility, carry-based digit normalization with verified witnesses,
shift radix system orbits, and three-valued finiteness classification.
"""

from .errors import (
    BetaFinError,
    CascadeOverrun,
    ClosureBudgetExceeded,
    F1Unknown,
    FactorBudgetExceeded,
    FieldMismatch,
    InvariantViolation,
    NoRootAboveOne,
    NotAdmissible,
    NotCubicPisot,
    NotUnit,
    OrbitBudgetExceeded,
    OutOfRange,
    Reducible,
)
from .field import (
    BetaField,
    FieldElement,
    cubic_pisot_criterion,
    is_pisot,
    make_field,
    unit_disk_profile,
)
from .words import Word, format_word, lex_cmp, parse_word, subtract
from .expansion import (
    Expansion,
    FreeBlockDecomposition,
    beta_expand,
    big_l,
    d_beta,
    d_beta_one,
    d_beta_star,
    frac_part,
    free_blocks,
    is_admissible,
    is_finite_expansion,
    nu,
    t_map,
    t_orbit_of_one,
    xi,
    xi_t_power,
)
from .normalization import (
    KeyWitness,
    add_one,
    carry_step,
    witness_for_natural,
)
from .srs import (
    F1Certificate,
    OrbitGraph,
    ShiftRadixSystem,
    delta,
    export_graph,
    f1_certificate,
    in_f_beta,
    q_set,
    tau_preimages,
    v_box_set,
)
from .classify import (
    CpCaseReport,
    PropertyReport,
    bassino_case,
    classify,
    cpcase_check,
    cubic_unit_classify,
    pf_shape,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
