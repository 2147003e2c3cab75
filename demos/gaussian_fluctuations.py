"""
Monte Carlo check of Gaussian fluctuations
==========================================

"""

import numpy as np

from wreathprob.groups import cyclic_group
from wreathprob.sampling import (
    fluctuation_statistics,
    normality_check,
    predicted_r_covariance,
    sample_batch,
    spec_name,
)
from wreathprob.wreath import Example1Family

############################################################
# Draw canonical random partition tuples at q = 400 and collect
# the centered, scaled free cumulants of the slot-0 diagram.

fam = Example1Family(cyclic_group(2))
q, n_samples = 400, 1500
batch = sample_batch(fam, q, n_samples, root_seed=11)
specs = [("R", 0, 2), ("R", 0, 3)]
stats = fluctuation_statistics(batch, specs)

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
print("empirical covariance:", np.round(report["covariance"], 4).tolist())
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

column = stats[:, 0] / np.sqrt(np.mean(stats[:, 0] ** 2))
edges = np.linspace(-3, 3, 13)
counts, _ = np.histogram(column, bins=edges)
peak = counts.max()
print("\nstandardized block-size fluctuation:")
for left, right, c in zip(edges, edges[1:], counts):
    bar = "#" * round(40 * c / peak)
    print(f"  [{left:+.1f}, {right:+.1f})  {bar}")
