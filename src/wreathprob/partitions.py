"""Integer partitions, hook lengths, and symmetric-group characters.

Partitions are tuples of weakly decreasing positive integers; the empty
partition is ``()``.  Irreducible characters at a whole cycle type are
computed by rim-hook removal on beta-number sets and cached, so sweeping
a character table's worth of (partition, class) pairs stays cheap.
Indicator scalars on large diagrams come from free cumulants instead, in
``indicators``.
"""

from __future__ import annotations

import math
from functools import cache


@cache
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
    return all(isinstance(p, int) and p >= 1 for p in lam) and all(
        lam[i] >= lam[i + 1] for i in range(len(lam) - 1)
    )


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


@cache
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


def _beta_set(lam: tuple[int, ...]) -> tuple[int, ...]:
    # first-column hook lengths, ascending
    r = len(lam)
    return tuple(sorted(part + r - 1 - i for i, part in enumerate(lam)))


@cache
def _mn(betas: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu or mu[0] == 1:
        # only fixed points remain (mu is descending): the value is the
        # dimension of the remaining shape, read off its beta set
        num = math.factorial(len(mu))
        den = 1
        for j, b in enumerate(betas):
            den *= math.factorial(b)
            for a in betas[:j]:
                num *= b - a
        return num // den
    k, rest = mu[0], mu[1:]
    bset = set(betas)
    total = 0
    for b in betas:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        leg = sum(1 for x in betas if nb < x < b)
        replaced = tuple(sorted(bset - {b} | {nb}))
        total += (-1) ** leg * _mn(replaced, rest)
    return total


def character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Irreducible character of shape ``lam`` at cycle type ``mu``."""
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _mn(_beta_set(lam), tuple(sorted(mu, reverse=True)))


def falling(x, k: int):
    """Falling factorial x(x-1)...(x-k+1); works for ints and Fractions."""
    out = 1
    for i in range(k):
        out = out * (x - i)
    return out

