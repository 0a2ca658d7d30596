"""Judges of the scan that reuse the package's per-prime kernels.

Unlike `oracles`, these share code with the package: the obstruction
check classifies with the gcd classifier behind `splitting_type` and
takes residues from `trib_mod`, and the reduction identity evaluates the
root formula's ring.  What they judge, the scan's batches, each prime's
residue a dot product off its batch's ladder, with their p mod 11 rule,
share none of that code.
"""

from typing import NamedTuple

from trib11.gfext import FrobeniusClass, _gcd_shape
from trib11.modmath import PrimeLike, primes_in_range
from trib11.tribonacci import build_root_context, trib_mod


class ObstructionReport(NamedTuple):
    """Outcome of the per-class divisibility obstructions over a range."""

    lo: int
    hi: int
    checked: dict[FrobeniusClass, int]
    failures: list[tuple[int, str]]

    @property
    def status(self) -> str:
        return "FAILED" if self.failures else "OK"


def obstruction_check(lo: int, hi: int) -> ObstructionReport:
    """Check the per-class divisibility obstructions over [lo, hi).

    Identity-class primes must divide T_{p-1}; a transposition-class
    prime may do so only if it divides 38; a 3-cycle-class prime p > 2
    never does.  Ramified primes carry no class and are only counted.

    One prime at a time, without the scan's verdicts: the class comes from
    the degree of gcd(f, x^p - x), with no root search, and the residue
    from `trib_mod`; no Cornacchia runs.  "Identity => p | T_{p-1}" holds
    here by construction: `trib_mod` and the classifier each take x^p from
    the per-prime ladder `_xpow`, and x^p = x leaves T_{p-1}, the x^2
    coefficient, at zero.  Independent coverage of the residue comes from
    acceptance criteria 04 (`trib_via_roots`), 05
    (`frobenius_reduction_check`) and 08 (plain iteration).
    """
    checked = {cls: 0 for cls in FrobeniusClass}
    failures: list[tuple[int, str]] = []
    for p in primes_in_range(lo, hi):
        cls = _gcd_shape(p)[0].frobenius_class
        divisible = trib_mod(p - 1, p) == 0
        checked[cls] += 1
        if cls is FrobeniusClass.IDENTITY:
            if not divisible:
                failures.append((p, "split prime does not divide T_{p-1}"))
        elif cls is FrobeniusClass.TRANSPOSITION:
            if divisible and 38 % p != 0:
                failures.append((p, "transposition prime divides T_{p-1} but not 38"))
        elif cls is FrobeniusClass.THREE_CYCLE:
            if p > 2 and divisible:
                failures.append((p, "3-cycle prime divides T_{p-1}"))
    return ObstructionReport(lo, hi, checked, failures)


def frobenius_reduction_check(p: PrimeLike) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both sides of delta*T_{p-1} = alpha^p(beta-gamma) - beta^p(alpha-gamma) + gamma^p(alpha-beta).

    The left side goes through `trib_mod`, the right side through ring
    exponentiation of each root; the two coefficient tuples returned must
    be equal at every unramified prime.
    """
    ctx = build_root_context(p)
    a, b, g, pv = ctx.alpha, ctx.beta, ctx.gamma, ctx.p
    lhs = ctx.delta * ctx.ring.const(trib_mod(pv - 1, pv))
    rhs = a**pv * (b - g) - b**pv * (a - g) + g**pv * (a - b)
    return lhs.coeffs, rhs.coeffs
