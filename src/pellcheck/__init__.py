"""Machine verification that no Pell number has the Lehmer property.

The package is organized around the steps the result delegates to
computation: exact sequence values (`sequences`), generic integer
machinery (`arith`), executable identities (`identities`), the staged
Lehmer decision procedure (`lehmer`), certified transcendental
comparisons (`intervals`), and the orchestrating harness (`verifier`).
"""

from .arith import (
    FactorPolicy,
    Factorization,
    euler_phi,
    factor,
    is_probable_prime,
    nu2,
)
from .identities import split_pell_minus_one
from .intervals import CertificationError, Interval, certify
from .lehmer import (
    LehmerReason,
    LehmerStatus,
    LehmerVerdict,
    lehmer_check,
)
from .sequences import PellPair, pell_pair
from .verifier import (
    LEHMER_OMEGA_MIN,
    BoundReport,
    FactorCache,
    IndexReport,
    VerificationReport,
    bound_chain,
    e8_threshold_check,
    final_threshold,
    run_identity_suite,
    verify_index,
    verify_range,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CertificationError",
    "FactorCache",
    "FactorPolicy",
    "Factorization",
    "IndexReport",
    "Interval",
    "LEHMER_OMEGA_MIN",
    "LehmerReason",
    "LehmerStatus",
    "LehmerVerdict",
    "PellPair",
    "VerificationReport",
    "bound_chain",
    "certify",
    "e8_threshold_check",
    "euler_phi",
    "factor",
    "final_threshold",
    "is_probable_prime",
    "lehmer_check",
    "nu2",
    "pell_pair",
    "run_identity_suite",
    "split_pell_minus_one",
    "verify_index",
    "verify_range",
]
