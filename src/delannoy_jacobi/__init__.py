"""Exact weighted lattice-path polynomials, classical polynomial families,
and a brute-force identity verification suite."""

from .families import (
    InvalidIndex,
    jacobi,
    laguerre,
    laguerre_gen,
    legendre,
    narayana,
    romanovski,
    schroder_poly,
    shifted_jacobi,
    shifted_legendre,
    sj_product_expansion,
)
from .functionals import (
    DegreeOutOfRange,
    MomentFunctional,
    NotInRecurrence,
    det_exact,
    factorial_functional,
    favard_fit,
    hankel_mbeta,
    inner_weighted,
    lbeta_extension_threshold,
    lbeta_functional,
)
from .identities import (
    IdentityReport,
    SuiteConfig,
    UnknownIdentity,
    run_all,
    run_identity,
)
from .paths import (
    CapExceeded,
    Step,
    WeightTriple,
    central_delannoy,
    delannoy_closed,
    delannoy_enumerate,
    delannoy_row,
    delannoy_weighted,
    modified_delannoy,
    motzkin_legendre_moment,
    schroder_enumerate,
    schroder_numbers,
    schroder_weighted,
    valid_pair_signed_sum,
)
from .polynomial import Poly, binom, pochhammer
from .render import format_poly, parse_poly, parse_rational

__version__ = "0.1.0"
