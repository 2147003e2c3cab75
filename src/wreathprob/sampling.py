"""Monte Carlo sampling of canonical measures and Gaussian-fluctuation checks.

A Plancherel-distributed diagram of n boxes is the shape that
Robinson-Schensted row insertion builds from n i.i.d. uniforms: the
insertion is the Plancherel growth process, so the law is exact at every
size.  Root seeds expand to per-sample seeds through a counter scheme,
so serial and parallel runs produce identical shapes.  Shapes are
inserted only for the slots the statistics read, and the statistics
are evaluated on those shapes without drawing again.  Each statistic
is a polynomial in the free cumulants of its slot diagram (Kerov), and
the reports are small moment matrices over lists, all standard library.
"""

import math
import os
import random
from bisect import bisect_right
from collections.abc import Callable
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .asymptotics import predicted_limit
from .diagrams import free_cumulants
from .errors import Infeasible, InputError
from .indicators import evaluate, in_indicators, indicator_in_free_cumulants
from .indicators import profile_moment_in_free_cumulants
from .wreath import Example1Family, RepFamily

# the version of every CSV and JSON schema the package writes
SCHEMA_VERSION = 1


class StatisticKind(NamedTuple):
    """One statistic kind, a polynomial in the free cumulants R_1, R_2, ... of its slot."""

    least: int  # the least index
    exponent: Callable  # the centered statistic at index i is scaled by q**(exponent(i) / 2)
    polynomial: Callable  # index -> {monomial (R indices): int coefficient}
    # the polynomial is divided by falling(n, i) on n boxes, and so centered empirically
    per_falling: bool = False


STATISTIC_KINDS = {
    "R": StatisticKind(2, lambda i: 1 - i, lambda i: {(i,): 1}),
    # profile power sums: [w^k] phi^k (Ivanov-Olshanski)
    "p": StatisticKind(2, lambda i: 2 - i, profile_moment_in_free_cumulants),
    # normalized characters at an i-cycle: Kerov polynomials (Biane)
    "character": StatisticKind(1, lambda i: i, indicator_in_free_cumulants, True),
}


def _insertion_shape(values) -> tuple:
    """Row lengths of the Robinson-Schensted insertion tableau of ``values``."""
    rows: list = []
    for value in values:
        for row in rows:
            k = bisect_right(row, value)
            if k == len(row):
                row.append(value)
                break
            row[k], value = value, row[k]
        else:
            rows.append([value])
    return tuple(len(row) for row in rows)


def sample_plancherel(n: int, rng) -> tuple:
    """One random partition of n with the Plancherel law dim(lam)^2 / n!.

    Row-inserts n ``rng.random()`` uniforms (Robinson-Schensted) and
    returns the row lengths of the insertion tableau.
    """
    return _insertion_shape([rng.random() for _ in range(n)])


def require_direct_sampler(family: RepFamily) -> None:
    """Refuse a family whose canonical measure has no direct sampler."""
    if not isinstance(family, Example1Family):
        raise Infeasible(f"family kind {family.kind!r} has no direct sampler")


def sample_canonical(family: RepFamily, q: int, rng, slots=None) -> tuple:
    """One partition tuple from the independent-box canonical measure.

    Each of q uniforms picks its slot by the float slot weights, as
    ``random.choices`` does, and is row-inserted in that slot.  Given its
    slot a uniform is uniform on the slot's interval, so the block sizes
    are multinomial and each block's shape is Plancherel, from q draws.
    With ``slots``, all q uniforms are still drawn, so the stream and every
    block size stay the same, but only those slots' blocks are inserted;
    their shapes come back in the order given.
    """
    require_direct_sampler(family)
    bounds = list(accumulate(float(w) for w in family.weights))
    scale, last = bounds[-1], len(bounds) - 1
    slots = range(len(bounds)) if slots is None else list(slots)
    if not all(0 <= slot <= last for slot in slots):
        raise ValueError(f"slots {slots} out of range for {len(bounds)} slots")
    blocks: list = [[] for _ in bounds]
    for _ in range(q):
        value = rng.random() * scale
        blocks[bisect_right(bounds, value, 0, last)].append(value)
    return tuple(_insertion_shape(blocks[slot]) for slot in slots)


def _seed_rng(root_seed: int, index: int) -> random.Random:
    # str seeds are hashed with SHA-512, so the stream is version-stable
    return random.Random(f"{root_seed}:{index}")


def _sample_range(payload):
    family, q, root_seed, slots, start, stop = payload
    return [sample_canonical(family, q, _seed_rng(root_seed, i), slots) for i in range(start, stop)]


def sample_shapes(
    family: RepFamily, q: int, n_samples: int, root_seed: int, slots, workers: int = 1
) -> dict:
    """Each given slot's shape in each of n_samples draws: {slot: [shape per sample]}.

    Sample i comes from its own stream ``_seed_rng(root_seed, i)``, so any
    worker count gives the same shapes, and draws every uniform whichever
    slots are given, so a slot's shapes do not depend on the other slots.
    """
    require_direct_sampler(family)
    slots, n = sorted(set(slots)), n_samples
    chunk = -(-n // max(workers, 1)) or 1
    payloads = [(family, q, root_seed, slots, i, min(i + chunk, n)) for i in range(0, n, chunk)]
    if len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # under fork a pool starts every worker at its first submit
        with ProcessPoolExecutor(max_workers=min(len(payloads), os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_sample_range, payloads))
    else:
        parts = map(_sample_range, payloads)
    rows = [row for part in parts for row in part]
    return {slot: [row[k] for row in rows] for k, slot in enumerate(slots)}


def _depth(polynomials) -> int:
    """The deepest free-cumulant index the polynomials read."""
    return max(index for poly in polynomials for mono in poly for index in mono)


def statistic_value(lam, spec, cumulants=None) -> int | Fraction:
    """Raw (uncentered, unscaled) value of one statistic on its slot's shape.

    ``cumulants`` are the shape's free cumulants R_1, R_2, ..., at least as
    deep as the statistic's polynomial; they are computed when not given.
    """
    kind, _, i = spec
    entry = STATISTIC_KINDS[kind]
    poly = entry.polynomial(i)
    if cumulants is None:
        cumulants = free_cumulants(tuple(lam), _depth([poly]))
    value = evaluate(poly, cumulants)
    if entry.per_falling:
        return Fraction(value, math.perm(sum(lam), i)) if sum(lam) >= i else Fraction(0)
    return value


def check_specs(specs, slots: int) -> None:
    """Refuse an unknown kind, an index below its kind's least, or a slot past the family's."""
    for spec in specs:
        kind, slot, index = spec
        if kind not in STATISTIC_KINDS:
            raise InputError(f"unknown statistic kind {kind!r}")
        least = STATISTIC_KINDS[kind].least
        if index < least:
            raise InputError(f"{kind} statistics start at index {least}")
        if not 0 <= slot < slots:
            raise InputError(f"statistic {spec_name(spec)} needs a slot in 0..{slots - 1}")


def exact_mean(family: RepFamily, q: int, spec):
    """Exact expectation of the raw statistic, when a moment formula exists."""
    kind, slot, i = spec
    entry = STATISTIC_KINDS[kind]
    if entry.per_falling:  # over a falling factorial of the random size: no moment formula
        return None
    return family.moment(q, [(slot, in_indicators(entry.polynomial(i)))])


def _mean(xs) -> float:
    return math.fsum(xs) / len(xs)


def statistic_columns(family: RepFamily, q: int, shapes: dict, specs) -> list:
    """Per spec, its raw column and its centered, scaled column, one value per sample.

    ``shapes`` maps each slot the specs read to its shape in every sample,
    as ``sample_shapes`` returns it; nothing is drawn here.  Each shape's
    free cumulants are computed once, as deep as its slot's statistics
    read, and every distinct statistic is evaluated once.  Polynomial
    statistics are centered at their exact means; the character statistic
    (a ratio of random quantities) is centered empirically.
    """
    if not any(shapes.values()):
        raise ValueError("empty batch")
    keys = [tuple(spec) for spec in specs]
    check_specs(keys, family.ct.num_irreps)
    by_slot: dict = {}
    for key in dict.fromkeys(keys):
        by_slot.setdefault(key[1], []).append(key)
    columns = {}
    for slot, slot_keys in by_slot.items():
        depth = _depth(STATISTIC_KINDS[kind].polynomial(i) for kind, _, i in slot_keys)
        raws = [[] for _ in slot_keys]
        for lam in shapes[slot]:
            cumulants = free_cumulants(lam, depth)
            for raw, key in zip(raws, slot_keys):
                raw.append(float(statistic_value(lam, key, cumulants)))
        for key, raw in zip(slot_keys, raws):
            scale = float(q) ** (STATISTIC_KINDS[key[0]].exponent(key[2]) / 2)
            mean = exact_mean(family, q, key)
            center = float(mean) if mean is not None else _mean(raw)
            columns[key] = (raw, [(x - center) * scale for x in raw])
    return [columns[key] for key in keys]


def fluctuation_statistics(family: RepFamily, q: int, shapes: dict, specs) -> list:
    """Rows of centered, scaled statistics: one tuple per sample."""
    return list(zip(*(centered for _, centered in statistic_columns(family, q, shapes, specs))))


def spec_name(spec) -> str:
    kind, slot, index = spec
    return f"{kind}[{slot},{index}]"


def normality_check(stats, names=None, predicted_cov=None) -> dict:
    """Gaussianity report on rows of statistics, one row per sample."""
    if not (n := len(stats)):
        raise ValueError("no samples")
    means = [_mean(column) for column in zip(*stats)]
    centered = [[v - m for v in column] for m, column in zip(means, zip(*stats))]
    if names is None:
        names = [f"stat{j}" for j in range(len(means))]
    # moment checks with 3-standard-error bands
    skew_band = 3 * math.sqrt(6 / n)
    kurt_band = 3 * math.sqrt(24 / n)
    per_stat = []
    for name, mean, c in zip(names, means, centered):
        var = _mean([v * v for v in c])
        entry = {"name": name, "mean": mean, "variance": var}
        if var <= 1e-24:
            entry.update(degenerate=True, gaussian=False)
        else:
            sd = math.sqrt(var)
            skew = _mean([(v / sd) ** 3 for v in c])
            kurt = _mean([(v / sd) ** 4 for v in c]) - 3.0
            entry.update(
                degenerate=False,
                skewness=skew,
                excess_kurtosis=kurt,
                skew_band=skew_band,
                kurtosis_band=kurt_band,
                gaussian=abs(skew) <= skew_band and abs(kurt) <= kurt_band,
            )
        per_stat.append(entry)
    cov = [[_mean([u * v for u, v in zip(a, b)]) for b in centered] for a in centered]
    report = {"n_samples": n, "statistics": per_stat, "covariance": cov}
    if predicted_cov is not None:
        predicted = [[float(v) for v in row] for row in predicted_cov]
        report["predicted_covariance"] = predicted
        report["covariance_abs_error"] = max(
            abs(c - p) for cr, pr in zip(cov, predicted) for c, p in zip(cr, pr)
        )
    return report


def predicted_r_covariance(params, specs) -> list:
    """Limit covariance matrix for R-kind statistics from a limit table."""
    if params.cov is None or any(spec[0] != "R" for spec in specs):
        raise ValueError("predictions need free-cumulant statistics and a covariance table")
    return [
        [float(predicted_limit(params, 4, [(s1, i1), (s2, i2)])) for _, s2, i2 in specs]
        for _, s1, i1 in specs
    ]
