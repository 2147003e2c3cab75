"""Integer partitions, hook lengths, and symmetric-group characters.

Partitions are tuples of weakly decreasing positive integers; the empty
partition is ``()``.  Every character value and every scalar through
which a class indicator acts on an irreducible comes from one rim-hook
removal on beta sets, ``term_scalar``, whose Frobenius hook-length
ratios never form a factorial of the box count (Macdonald, ch. I, §7).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache

# dimensions and (diagram, rows) scalars remembered by value: a measure's support
# and a command's rows read the same terms on the same diagrams again and again
SCALAR_CACHE_SIZE = 2**12


@cache  # keyed by a size: n <= q of an enumeration under the class budget, or a check bound
def partitions_of(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of ``n`` with parts at most ``max_part``, lex-descending."""
    if n < 0:
        return ()
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def is_partition(lam: tuple[int, ...]) -> bool:
    # bool is an int subclass, so the type is compared exactly
    return all(type(p) is int and p >= 1 for p in lam) and all(
        lam[i] >= lam[i + 1] for i in range(len(lam) - 1)
    )


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


@lru_cache(maxsize=SCALAR_CACHE_SIZE)
def dimension(lam: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of shape ``lam`` (hook lengths)."""
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return math.factorial(n) // hooks


@lru_cache(maxsize=SCALAR_CACHE_SIZE)
def term_scalar(lam: tuple[int, ...], rows: tuple[int, ...]) -> Fraction:
    """falling(n, |rows|) chi^lam(rows, 1^(n - |rows|)) / dim lam for lam of n boxes.

    The scalar through which the indicator of the rows acts on irrep lam,
    an integer; rows holding more than n points give 0.  Removing a k-rim
    hook moves bead b of lam's beta set to b - k and multiplies by
    falling(b, k) prod_{a != b} (b - k - a) / (b - a), which carries the
    Murnaghan-Nakayama sign and is 0 when b - k is taken (Macdonald,
    ch. I, §7); rows of length one count falling(n - |cycles|, ones).  No
    factorial of n is formed.
    """
    n = sum(lam)
    if sum(rows) > n:
        return Fraction(0)
    cycles = [k for k in rows if k > 1]
    memo: dict = {}

    def removed(betas, i):
        # the scalar of cycles[i:] on the diagram of these beads: an integer,
        # z_rows times a central character value
        if i == len(cycles):
            return 1
        if (betas, i) not in memo:
            k, ratios = cycles[i], []
            # the factor b - (a + k) of bead a cancels that of bead a + k:
            # what is left runs over the gaps a + k above beads and the
            # beads above gaps (the movable ones), and -k at b itself
            shifted = frozenset(map(k.__add__, betas))
            gaps, movable = shifted - betas, betas - shifted
            for b in movable:
                if b >= k:
                    num = math.perm(b, k) * math.prod(map(b.__sub__, gaps))
                    den = -k * math.prod(map(b.__sub__, movable - {b}))
                    ratios.append((num * removed(betas - {b} | {b - k}, i + 1), den))
            common = math.lcm(*(den for _, den in ratios))
            memo[betas, i] = sum(num * (common // den) for num, den in ratios) // common
        return memo[betas, i]

    betas = frozenset(part + len(lam) - 1 - i for i, part in enumerate(lam))
    return Fraction(math.perm(n - sum(cycles), len(rows) - len(cycles)) * removed(betas, 0))


def character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Irreducible character of shape ``lam`` at cycle type ``mu``, read off ``term_scalar``."""
    lam, n = tuple(lam), sum(lam)
    if n != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    cycles = tuple(sorted((k for k in mu if k > 1), reverse=True))
    s = term_scalar(lam, cycles)
    return dimension(lam) * s.numerator // (s.denominator * math.perm(n, sum(cycles)))

