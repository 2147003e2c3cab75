"""Monte Carlo sampling of canonical measures and Gaussian-fluctuation checks.

A Plancherel-distributed diagram of n boxes is the shape that
Robinson-Schensted row insertion builds from n i.i.d. uniforms: the
insertion is the Plancherel growth process, so the law is exact at every
size.  Root seeds expand to per-sample seeds through a counter scheme,
so serial and parallel runs produce identical batches.
"""

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

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


def sample_plancherel(n: int, rng) -> tuple:
    """One random partition of n with the Plancherel law dim(lam)^2 / n!.

    Row-inserts n uniforms from ``rng`` (Robinson-Schensted) and returns
    the row lengths of the insertion tableau.
    """
    rows: list = []
    for value in rng.random(n).tolist():
        for row in rows:
            k = bisect_right(row, value)
            if k == len(row):
                row.append(value)
                break
            row[k], value = value, row[k]
        else:
            rows.append([value])
    return tuple(len(row) for row in rows)


def sample_canonical(family: RepFamily, q: int, rng) -> tuple:
    """One partition tuple from the independent-box canonical measure."""
    if not isinstance(family, Example1Family):
        raise ValueError("only the independent-box family has a direct sampler")
    probs = np.array([float(w) for w in family.weights], dtype=np.float64)
    probs /= probs.sum()
    sizes = rng.multinomial(q, probs)
    return tuple(sample_plancherel(int(n), rng) for n in sizes)


def _seed_rng(root_seed: int, index: int):
    return np.random.default_rng([root_seed, index])


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


def free_cumulant_value(lam, i: int) -> Fraction:
    """R_i of one diagram; profile-moment shortcut for i <= 4."""
    if i < 2:
        raise ValueError("free-cumulant statistics start at index 2")
    if i == 2:
        return Fraction(profile_moment(lam, 2), 2)
    if i == 3:
        return Fraction(profile_moment(lam, 3), 3)
    if i == 4:
        r2 = Fraction(profile_moment(lam, 2), 2)
        return (profile_moment(lam, 4) - 6 * r2 * r2) / 4
    return free_cumulants(tuple(lam), i)[i - 1]


def statistic_value(lam_tuple, q: int, spec) -> Fraction:
    """Raw (uncentered, unscaled) value of one statistic on one sample."""
    kind = spec[0]
    if kind == "R":
        _, slot, i = spec
        return free_cumulant_value(lam_tuple[slot], i)
    if kind == "p":
        _, slot, i = spec
        if i < 2:
            raise ValueError("shape statistics start at index 2")
        return profile_moment(lam_tuple[slot], i)
    if kind == "character":
        _, slot, l = spec
        lam = lam_tuple[slot]
        n = sum(lam)
        if n < l:
            return Fraction(0)
        # evaluate the cycle indicator through free cumulants; direct
        # character recursion is infeasible on large diagrams
        cums = free_cumulants(tuple(lam), l + 1)
        scalar = Fraction(0)
        for mono, coeff in indicator_in_free_cumulants(l).items():
            term = coeff
            for idx in mono:
                term *= cums[idx - 1]
            scalar += term
        return scalar / falling(n, l)
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


def fluctuation_statistics(batch: SampleBatch, specs) -> np.ndarray:
    """Matrix of centered, scaled statistics: one row per sample.

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
            raw = np.array(
                [float(statistic_value(t, batch.q, spec)) for t in batch.samples]
            )
            mean = exact_mean(batch.family, batch.q, spec)
            center = float(mean) if mean is not None else raw.mean()
            batch.raw_statistics[key] = raw
            batch.statistics_cache[key] = (raw - center) * statistic_scaling(
                batch.q, spec
            )
        columns.append(batch.statistics_cache[key])
    return np.column_stack(columns)


def spec_name(spec) -> str:
    kind, slot, index = spec
    return f"{kind}[{slot},{index}]"


def normality_check(stats: np.ndarray, names=None, predicted_cov=None) -> dict:
    """Moment-based Gaussianity report with 3-standard-error bands."""
    stats = np.asarray(stats, dtype=np.float64)
    if stats.ndim == 1:
        stats = stats[:, None]
    n, k = stats.shape
    if names is None:
        names = [f"stat{j}" for j in range(k)]
    skew_band = 3 * math.sqrt(6 / n)
    kurt_band = 3 * math.sqrt(24 / n)
    per_stat = []
    for j in range(k):
        x = stats[:, j]
        mean = float(x.mean())
        centered = x - mean
        var = float(centered @ centered) / n
        entry = {"name": names[j], "mean": mean, "variance": var}
        if var <= 1e-24:
            entry["degenerate"] = True
            entry["gaussian"] = False
        else:
            sd = math.sqrt(var)
            z = centered / sd
            skew = float((z**3).mean())
            kurt = float((z**4).mean()) - 3.0
            entry["degenerate"] = False
            entry["skewness"] = skew
            entry["excess_kurtosis"] = kurt
            entry["skew_band"] = skew_band
            entry["kurtosis_band"] = kurt_band
            entry["gaussian"] = abs(skew) <= skew_band and abs(kurt) <= kurt_band
        per_stat.append(entry)
    centered = stats - stats.mean(axis=0)
    cov = (centered.T @ centered) / n
    report = {
        "n_samples": n,
        "statistics": per_stat,
        "covariance": cov.tolist(),
    }
    if predicted_cov is not None:
        predicted = np.asarray(predicted_cov, dtype=np.float64)
        report["predicted_covariance"] = predicted.tolist()
        report["covariance_abs_error"] = float(np.abs(cov - predicted).max())
    return report


def predicted_r_covariance(params, specs) -> np.ndarray:
    """Limit covariance matrix for R-kind statistics from a limit table."""
    k = len(specs)
    out = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            if specs[a][0] != "R" or specs[b][0] != "R":
                raise ValueError("predictions cover free-cumulant statistics only")
            _, s1, i1 = specs[a]
            _, s2, i2 = specs[b]
            out[a, b] = float(params.covariance(s1, i1 - 1, s2, i2 - 1))
    return out


def batch_csv(batch: SampleBatch, specs) -> str:
    """One row per sample per statistic, raw and scaled-centered values."""
    stats = fluctuation_statistics(batch, specs)
    raws = [batch.raw_statistics[tuple(spec)] for spec in specs]
    names = [spec_name(spec) for spec in specs]
    lines = ["# schema_version=1", "sample,statistic,raw,centered_scaled"]
    for i in range(len(batch.samples)):
        for j, name in enumerate(names):
            lines.append(f"{i},{name},{float(raws[j][i])!r},{float(stats[i, j])!r}")
    return "\n".join(lines) + "\n"


def summary_json(batch: SampleBatch, specs, predicted_cov=None) -> str:
    stats = fluctuation_statistics(batch, specs)
    report = normality_check(
        stats, [spec_name(s) for s in specs], predicted_cov=predicted_cov
    )
    report["q"] = batch.q
    report["root_seed"] = batch.root_seed
    return json.dumps(report, indent=2)
