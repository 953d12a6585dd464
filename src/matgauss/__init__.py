"""Exact Gauss sums over the matrix groups GL_n(F_q) and SL_n(F_q).

Closed-form evaluation (via classical Gauss sums and hyper-Kloosterman sums),
counts of invertible matrices by trace, and exhaustive enumeration oracles
that verify every closed form with exact cyclotomic-integer arithmetic.
"""

from .budget import (
    BUDGET_ENV_VAR,
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    resolve_budget,
)
from .characters import (
    AdditiveCharacter,
    MultiplicativeCharacter,
    classical_gauss_sum,
    clear_character_caches,
    kloosterman,
    kloosterman_bruteforce,
    value_ring,
)
from .cyclotomic import (
    CyclotomicInteger,
    CyclotomicRing,
    cyclotomic_polynomial,
    get_ring,
)
from .finite_field import (
    DEFAULT_MAX_Q,
    Field,
    FieldElement,
    MultGroupTable,
    build_mult_table,
    is_prime,
    make_field,
)
from .gauss_sums import (
    SumReport,
    count_trace_bruteforce,
    count_trace_closed,
    factor_prime_power,
    gl_gauss_bruteforce,
    gl_gauss_closed,
    gl_order,
    oracle_report,
    sl_gauss_bruteforce,
    sl_gauss_closed,
    sl_order,
    verify_grid,
)
from .matrix_fq import (
    MatrixFq,
    canonical_rank_matrix,
    clear_member_cache,
    frobenius_product,
    gl_members,
    random_invertible,
    random_matrix,
    random_rank_matrix,
)

__version__ = "0.1.0"
