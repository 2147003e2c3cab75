"""Monte Carlo sampling of canonical measures and Gaussian-fluctuation checks.

A Plancherel-distributed diagram of n boxes is the shape that
Robinson-Schensted row insertion builds from n i.i.d. uniforms: the
insertion is the Plancherel growth process, so the law is exact at every
size.  Root seeds expand to per-sample seeds through a counter scheme,
so serial and parallel runs produce identical batches.  Everything here
is standard library: statistics are small moment matrices over lists.
"""

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from .diagrams import profile_moment, transition_measure, free_cumulants
from .indicators import (
    free_cumulant_as_indicators,
    indicator_in_free_cumulants,
    profile_moment_as_indicators,
)
from .partitions import falling
from .wreath import Example1Family, RepFamily


def growth_weights(lam):
    """Exact growth-step law: (content, grown diagram, probability) triples.

    Each addable corner is weighted by the transition measure of ``lam`` at
    its content; the triples come in ascending content order.
    """
    lam = tuple(lam)
    tm = transition_measure(lam)
    by_content = dict(zip(tm.atoms, tm.weights))
    out = [(-len(lam), lam + (1,), by_content[-len(lam)])]
    for r in range(len(lam)):
        if r == 0 or lam[r - 1] > lam[r]:
            content = lam[r] - r
            grown = lam[:r] + (lam[r] + 1,) + lam[r + 1 :]
            out.append((content, grown, by_content[content]))
    out.sort()
    return out


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


def sample_canonical(family: RepFamily, q: int, rng) -> tuple:
    """One partition tuple from the independent-box canonical measure.

    Each of q uniforms picks its slot by the float slot weights, as
    ``random.choices`` does, and is row-inserted in that slot.  Given its
    slot a uniform is uniform on the slot's interval, so the block sizes
    are multinomial and each block's shape is Plancherel, from q draws.
    """
    if not isinstance(family, Example1Family):
        raise ValueError("only the independent-box family has a direct sampler")
    bounds = list(accumulate(float(w) for w in family.weights))
    scale, last = bounds[-1], len(bounds) - 1
    blocks: list = [[] for _ in bounds]
    for _ in range(q):
        value = rng.random() * scale
        blocks[bisect_right(bounds, value, 0, last)].append(value)
    return tuple(_insertion_shape(block) for block in blocks)


def _seed_rng(root_seed: int, index: int) -> random.Random:
    # str seeds are hashed with SHA-512, so the stream is version-stable
    return random.Random(f"{root_seed}:{index}")


@dataclass
class SampleBatch:
    """Independent draws from one family's canonical measure at fixed q."""

    family: RepFamily
    q: int
    root_seed: int
    samples: list = field(default_factory=list)
    # per statistic key: the centered-scaled column, and the raw one
    statistics_cache: dict = field(default_factory=dict)
    raw_statistics: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.samples)


def _sample_range(payload):
    family, q, root_seed, start, stop = payload
    return [
        sample_canonical(family, q, _seed_rng(root_seed, i))
        for i in range(start, stop)
    ]


def sample_batch(
    family: RepFamily, q: int, n_samples: int, root_seed: int, workers: int = 1
) -> SampleBatch:
    """Draw n_samples tuples; identical output for any worker count."""
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = (n_samples + workers - 1) // workers
        payloads = [
            (family, q, root_seed, start, min(start + chunk, n_samples))
            for start in range(0, n_samples, chunk)
        ]
        samples = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_sample_range, payloads):
                samples.extend(part)
    else:
        samples = _sample_range((family, q, root_seed, 0, n_samples))
    return SampleBatch(family=family, q=q, root_seed=root_seed, samples=samples)


def statistic_value(lam_tuple, q: int, spec) -> Fraction:
    """Raw (uncentered, unscaled) value of one statistic on one sample."""
    kind, slot, i = spec
    if kind in ("R", "p") and i < 2:
        raise ValueError(f"{kind} statistics start at index 2")
    lam = tuple(lam_tuple[slot])
    if kind == "R":
        return free_cumulants(lam, i)[i - 1]
    if kind == "p":
        return profile_moment(lam, i)
    if kind == "character":
        n = sum(lam)
        if n < i:
            return Fraction(0)
        # evaluate the i-cycle indicator through free cumulants; direct
        # character recursion is infeasible on large diagrams
        cums = free_cumulants(lam, i + 1)
        scalar = Fraction(0)
        for mono, coeff in indicator_in_free_cumulants(i).items():
            scalar += coeff * math.prod(cums[idx - 1] for idx in mono)
        return scalar / falling(n, i)
    raise ValueError(f"unknown statistic kind {spec!r}")


def statistic_scaling(q: int, spec) -> float:
    kind = spec[0]
    if kind == "R":
        return float(q) ** (-(spec[2] - 1) / 2)
    if kind == "p":
        return float(q) ** (-(spec[2] - 2) / 2)
    if kind == "character":
        return float(q) ** (spec[2] / 2)
    raise ValueError(f"unknown statistic kind {spec!r}")


def exact_mean(family: RepFamily, q: int, spec):
    """Exact expectation of the raw statistic, when a moment formula exists."""
    kind = spec[0]
    if kind == "R":
        return family.moment(q, [(spec[1], free_cumulant_as_indicators(spec[2]))])
    if kind == "p":
        return family.moment(q, [(spec[1], profile_moment_as_indicators(spec[2]))])
    return None


def _mean(xs) -> float:
    return math.fsum(xs) / len(xs)


def fluctuation_statistics(batch: SampleBatch, specs) -> list:
    """Rows of centered, scaled statistics: one tuple per sample.

    Free-cumulant and shape statistics are centered at their exact means;
    the character statistic (a ratio of random quantities) is centered
    empirically.
    """
    if not batch.samples:
        raise ValueError("empty batch")
    columns = []
    for spec in specs:
        key = tuple(spec)
        if key not in batch.statistics_cache:
            raw = [float(statistic_value(t, batch.q, spec)) for t in batch.samples]
            mean = exact_mean(batch.family, batch.q, spec)
            center = float(mean) if mean is not None else _mean(raw)
            scale = statistic_scaling(batch.q, spec)
            batch.raw_statistics[key] = raw
            batch.statistics_cache[key] = [(x - center) * scale for x in raw]
        columns.append(batch.statistics_cache[key])
    return list(zip(*columns))


def spec_name(spec) -> str:
    kind, slot, index = spec
    return f"{kind}[{slot},{index}]"


def normality_check(stats, names=None, predicted_cov=None) -> dict:
    """Gaussianity report on rows of statistics, one row per sample."""
    n = len(stats)
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
    if any(spec[0] != "R" for spec in specs):
        raise ValueError("predictions cover free-cumulant statistics only")
    return [
        [float(params.covariance(s1, i1 - 1, s2, i2 - 1)) for _, s2, i2 in specs]
        for _, s1, i1 in specs
    ]


def batch_csv(batch: SampleBatch, specs) -> str:
    """One row per sample per statistic, raw and scaled-centered values."""
    stats = fluctuation_statistics(batch, specs)
    raws = [batch.raw_statistics[tuple(spec)] for spec in specs]
    names = [spec_name(spec) for spec in specs]
    lines = ["# schema_version=1", "sample,statistic,raw,centered_scaled"]
    for i in range(len(batch.samples)):
        for j, name in enumerate(names):
            lines.append(f"{i},{name},{raws[j][i]!r},{stats[i][j]!r}")
    return "\n".join(lines) + "\n"


def summary_json(batch: SampleBatch, specs, predicted_cov=None) -> str:
    stats = fluctuation_statistics(batch, specs)
    report = normality_check(
        stats, [spec_name(s) for s in specs], predicted_cov=predicted_cov
    )
    report["q"] = batch.q
    report["root_seed"] = batch.root_seed
    return json.dumps(report, indent=2)
