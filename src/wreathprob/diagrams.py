"""Diagram profiles, transition measures, and free cumulants.

A Young diagram drawn in Russian convention has a zigzag profile whose
local minima sit at the contents of addable corners and whose local
maxima sit at the contents of removable corners; the two sequences
strictly interlace, minima outermost.  The transition measure puts an
explicit rational weight on each minimum, and free cumulants are read
off its moments by the usual noncrossing inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .partitions import is_partition


def minima_maxima(lam: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Contents of addable corners (minima) and removable corners (maxima)."""
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    rows = len(lam)
    minima = []
    maxima = []
    for i in range(rows):
        if i == 0 or lam[i - 1] > lam[i]:
            minima.append(lam[i] - i)
        if i == rows - 1 or lam[i] > lam[i + 1]:
            maxima.append(lam[i] - 1 - i)
    minima.append(-rows)
    return tuple(sorted(minima)), tuple(sorted(maxima))


@dataclass(frozen=True)
class TransitionMeasure:
    """Finitely supported probability measure attached to a profile."""

    atoms: tuple
    weights: tuple[Fraction, ...]

    def moment(self, n: int) -> Fraction:
        return sum(
            (w * a**n for a, w in zip(self.atoms, self.weights)),
            start=Fraction(0),
        )

    def moments(self, up_to: int) -> list[Fraction]:
        return [self.moment(n) for n in range(1, up_to + 1)]


def transition_measure(lam: tuple[int, ...]) -> TransitionMeasure:
    """Atom at each minimum content, weight from the interlacing product."""
    x, y = minima_maxima(lam)
    weights = []
    for i, xi in enumerate(x):
        num = 1
        den = 1
        for yj in y:
            num *= xi - yj
        for k, xk in enumerate(x):
            if k != i:
                den *= xi - xk
        weights.append(Fraction(num, den))
    return TransitionMeasure(tuple(x), tuple(weights))


def dilate(tm: TransitionMeasure, p) -> TransitionMeasure:
    """Push forward under multiplication by p; atoms scale, weights do not."""
    scale = Fraction(p)
    return TransitionMeasure(tuple(a * scale for a in tm.atoms), tm.weights)


def profile_moment(lam: tuple[int, ...], n: int) -> int:
    """Power sum of the profile: minima contribute, maxima and origin subtract."""
    x, y = minima_maxima(lam)
    value = sum(xi**n for xi in x) - sum(yj**n for yj in y)
    if n == 0:
        value -= 1
    return value


def moments_to_free_cumulants(moments: list) -> list:
    """Invert the moment sequence (M_1, M_2, ...) into free cumulants.

    Uses the composition form of the noncrossing relation: the n-th moment
    is the sum over the size s of the block containing the first point of
    R_s times products of smaller moments filling the s gaps.  The
    inversion only adds and multiplies, so the cumulants come back in the
    moments' own type: ints from ints, Fractions from Fractions.
    """
    n = len(moments)
    m = [1, *moments]
    # gap_fill[s][t]: sum over weak compositions of t into s parts of
    # moment products, built one part at a time; only t <= n - s is read
    gap_fill = [[1] + [0] * n]
    for s in range(1, n):
        prev = gap_fill[-1]
        gap_fill.append([
            sum(m[f] * prev[t - f] for f in range(t + 1)) for t in range(n - s + 1)
        ])

    cumulants = []
    for k in range(1, n + 1):
        lower = sum(cumulants[s - 1] * gap_fill[s][k - s] for s in range(1, k))
        cumulants.append(m[k] - lower)
    return cumulants


def free_cumulants(lam, up_to: int) -> list:
    """Free cumulants R_1..R_up_to: ints for a diagram, Fractions for a measure.

    A diagram's moments come from its profile power sums p_j (Kerov):
    G(z) = prod(z - y) / prod(z - x) = z^-1 exp(sum_j p_j / (j z^j)), so
    n M_n = sum_{j=1..n} p_j M_{n-j}.  G is z^-1 times a series in 1/z with
    integer coefficients, so the moments are integers and // is exact.
    """
    if isinstance(lam, TransitionMeasure):
        return moments_to_free_cumulants(lam.moments(up_to))
    x, y = minima_maxima(lam)
    p = [0] + [sum(a**j for a in x) - sum(b**j for b in y) for j in range(1, up_to + 1)]
    moments = [1]
    for n in range(1, up_to + 1):
        moments.append(sum(p[j] * moments[n - j] for j in range(1, n + 1)) // n)
    return moments_to_free_cumulants(moments[1:])
