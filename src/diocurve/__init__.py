"""diocurve: exact arithmetic for Diophantine approximation on vertically
translated integer polynomial curves.

Power-residue counting with enumeration-validated closed forms, congruence
solving with Hensel lifting, the reduction between simultaneous and
constrained approximation, certified cover-measure sums, hit scanning, and
a reproducible experiment CLI.
"""

from ._version import __version__
from .arithmetic import (
    Factorization,
    PreconditionError,
    divisor_count,
    distinct_prime_count,
    euler_phi,
    factorize,
    iroot,
)
from .covers import (
    CoverRecord,
    GcdBand,
    banded_center_count,
    cover_measure,
    restricted_series_partial,
    tail_sum,
)
from .counting import (
    HitFlags,
    count_curve,
    find_hits,
)
from .curve import (
    ConstrainedHit,
    DerivativeBound,
    IntPolynomial,
    derivative_sup_bound,
    eval_scaled,
    lift_constrained,
    reduce_simultaneous,
)
from .residues import (
    ResidueSet,
    count_solutions,
    hensel_lift,
    is_power_residue,
    is_primitive_power_residue,
    power_residue_count,
    power_residues,
    scaled_power_residue_count,
    unit_power_count,
    unity_roots_count,
)

__all__ = [name for name in dir() if not name.startswith("_")]
