"""Tribonacci divisibility meets the quadratic form x^2 + 11y^2.

For primes p outside {11, 19}, p divides T_{p-1} exactly when
p = x^2 + 11y^2, which in turn happens exactly when x^3 - x^2 - x - 1
splits into three distinct linear factors mod p.  This package computes
all three sides fast, checks them against each other over prime ranges,
and rediscovers the two exceptions.
"""

__version__ = "0.1.0"

#: each public name, in the order of __all__, and the submodule that defines it
_SOURCES = {
    "DISCRIMINANT": "gfext",
    "EXACT_INDEX_LIMIT": "tribonacci",
    "F_COEFFS": "gfext",
    "FORM_D": "quadform",
    "FrobeniusClass": "gfext",
    "IndexOutOfRange": "tribonacci",
    "InvalidModulus": "modmath",
    "KNOWN_EXCEPTIONS": "verifier",
    "MAX_MODULUS": "modmath",
    "ModPrime": "modmath",
    "NotPrime": "modmath",
    "RAMIFIED_PRIMES": "gfext",
    "RamifiedPrime": "gfext",
    "Representation": "quadform",
    "ScanReport": "verifier",
    "Shape": "gfext",
    "SplittingType": "gfext",
    "VerdictRecord": "verifier",
    "build_root_context": "tribonacci",
    "frobenius_orbit": "gfext",
    "is_prime": "modmath",
    "primes_in_range": "modmath",
    "represent": "quadform",
    "represent_bruteforce": "quadform",
    "scan": "verifier",
    "splitting_type": "gfext",
    "trib_exact": "tribonacci",
    "trib_mod": "tribonacci",
    "trib_via_roots": "tribonacci",
    "verdict": "verifier",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    # PEP 562: a public name's submodule is imported on first access, and the
    # name is bound here so later lookups never reach this function
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # imported after the lookup: `from . import cli` and the like probe this
    # function for submodule names, and those need no importlib
    from importlib import import_module

    value = getattr(import_module(f".{source}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
