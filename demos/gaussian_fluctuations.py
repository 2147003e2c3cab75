"""
Monte Carlo check of Gaussian fluctuations
==========================================

"""

import math
import statistics

from wreathprob.groups import cyclic_group
from wreathprob.sampling import (
    fluctuation_statistics,
    normality_check,
    predicted_r_covariance,
    sample_shapes,
    spec_name,
)
from wreathprob.wreath import Example1Family

############################################################
# Draw canonical random partition tuples at q = 400 and collect
# the centered, scaled free cumulants of the slot-0 diagram.

fam = Example1Family(cyclic_group(2))
q, n_samples = 400, 1500
shapes = sample_shapes(fam, q, n_samples, root_seed=11, slots={0})
specs = [("R", 0, 2), ("R", 0, 3)]
stats = fluctuation_statistics(fam, q, shapes, specs)

############################################################
# Compare the empirical covariance against the predicted one and
# test the third and fourth moments against Gaussian bands.

params = fam.limits(max_index=4)
predicted = predicted_r_covariance(params, specs)
report = normality_check(
    stats, names=[spec_name(s) for s in specs], predicted_cov=predicted
)
print(f"samples: {n_samples} at q = {q}")
print("predicted covariance:", report["predicted_covariance"])
print(
    "empirical covariance:",
    [[round(v, 4) for v in row] for row in report["covariance"]],
)
print("largest entry error: ", round(report["covariance_abs_error"], 4))
for entry in report["statistics"]:
    print(
        f'{entry["name"]}: skew {entry["skewness"]:+.3f} '
        f'(band {entry["skew_band"]:.3f}), '
        f'kurtosis excess {entry["excess_kurtosis"]:+.3f} '
        f'(band {entry["kurtosis_band"]:.3f}), '
        f'gaussian: {entry["gaussian"]}'
    )

############################################################
# A bare-hands histogram of the standardized second cumulant.

scale = math.sqrt(statistics.fmean(row[0] ** 2 for row in stats))
column = [row[0] / scale for row in stats]
edges = [-3 + k / 2 for k in range(13)]
counts = [0] * 12
for x in column:
    if -3 <= x <= 3:
        counts[min(math.floor(2 * (x + 3)), 11)] += 1
peak = max(counts)
print("\nstandardized block-size fluctuation:")
for left, right, c in zip(edges, edges[1:], counts):
    bar = "#" * round(40 * c / peak)
    print(f"  [{left:+.1f}, {right:+.1f})  {bar}")
