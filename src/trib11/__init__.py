"""Tribonacci divisibility meets the quadratic form x^2 + 11y^2.

For primes p outside {11, 19}, p divides T_{p-1} exactly when
p = x^2 + 11y^2, which in turn happens exactly when x^3 - x^2 - x - 1
splits into three distinct linear factors mod p.  This package computes
all three sides fast, checks them against each other over prime ranges,
and rediscovers the two exceptions.
"""

from .gfext import (
    DISCRIMINANT,
    F_COEFFS,
    RAMIFIED_PRIMES,
    FrobeniusClass,
    ModulusMismatch,
    QuotientRing,
    RamifiedPrime,
    RingElement,
    Shape,
    SplittingType,
    distinct_roots,
    frobenius_orbit,
    frobenius_power,
    splitting_type,
)
from .modmath import (
    MAX_MODULUS,
    InvalidModulus,
    ModPrime,
    NotInvertible,
    NotPrime,
    inv_mod,
    is_prime,
    jacobi,
    primes_in_range,
    require_prime,
    sqrt_mod,
)
from .quadform import FORM_D, Representation, represent, represent_bruteforce
from .tribonacci import (
    EXACT_INDEX_LIMIT,
    IndexOutOfRange,
    RootFormulaContext,
    build_root_context,
    frobenius_reduction_check,
    trib_exact,
    trib_mod,
    trib_via_roots,
)
from .verifier import (
    KNOWN_EXCEPTIONS,
    ObstructionReport,
    ScanReport,
    VerdictRecord,
    obstruction_check,
    scan,
    verdict,
)

__version__ = "0.1.0"

__all__ = [
    "DISCRIMINANT",
    "EXACT_INDEX_LIMIT",
    "F_COEFFS",
    "FORM_D",
    "FrobeniusClass",
    "IndexOutOfRange",
    "InvalidModulus",
    "KNOWN_EXCEPTIONS",
    "MAX_MODULUS",
    "ModPrime",
    "ModulusMismatch",
    "NotInvertible",
    "NotPrime",
    "ObstructionReport",
    "QuotientRing",
    "RAMIFIED_PRIMES",
    "RamifiedPrime",
    "Representation",
    "RingElement",
    "RootFormulaContext",
    "ScanReport",
    "Shape",
    "SplittingType",
    "VerdictRecord",
    "build_root_context",
    "distinct_roots",
    "frobenius_orbit",
    "frobenius_power",
    "frobenius_reduction_check",
    "inv_mod",
    "is_prime",
    "jacobi",
    "obstruction_check",
    "primes_in_range",
    "represent",
    "represent_bruteforce",
    "require_prime",
    "scan",
    "splitting_type",
    "sqrt_mod",
    "trib_exact",
    "trib_mod",
    "trib_via_roots",
    "verdict",
]
