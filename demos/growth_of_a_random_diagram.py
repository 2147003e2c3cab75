"""
Growing a random diagram one box at a time
==========================================

"""

import random

from wreathprob.diagrams import free_cumulants, transition_measure
from wreathprob.sampling import growth_weights, sample_plancherel

rng = random.Random(7)

############################################################
# Each growth step picks an addable corner with the weight the
# current diagram's transition measure puts on that corner.

lam = ()
for step in range(8):
    choices = growth_weights(lam)
    pretty = ", ".join(f"content {c}: {p}" for c, _, p in choices)
    print(f"{str(lam):<24} -> {pretty}")
    _, lam, _ = rng.choices(choices, weights=[float(p) for _, _, p in choices])[0]
print("grown diagram:", lam)

############################################################
# The first free cumulants of the final shape.  R_1 is always 0
# and R_2 counts the boxes; the higher ones measure how far the
# profile is from the limiting one.

for n, value in enumerate(free_cumulants(lam, 6), start=1):
    print(f"R_{n} = {value}")

############################################################
# At larger sizes the sampler follows the same law.  The row
# lengths of a 10000-box diagram, divided by sqrt(10000), hug the
# limit shape.

big = sample_plancherel(10_000, rng)
print("top rows / 100:", [round(r / 100, 2) for r in big[:8]])
print("number of rows:", len(big), " boxes:", sum(big))
print("atom count of its transition measure:", len(transition_measure(big).atoms))
