"""
Growing a random diagram one box at a time
==========================================

"""

import random

from wreathprob.diagrams import free_cumulants, transition_measure
from wreathprob.sampling import sample_plancherel

rng = random.Random(7)


def grow(lam, content):
    """The diagram with one box added at the addable corner of this content.

    Row r ends at content lam[r] - r, which falls strictly with r, so one
    row (a new one past the last) has the content.
    """
    rows = list(lam) + [0]
    r = next(r for r, length in enumerate(rows) if length - r == content)
    rows[r] += 1
    return tuple(length for length in rows if length)


############################################################
# Each growth step picks an addable corner with the weight the
# current diagram's transition measure puts on that corner: its
# atoms are the contents of the addable corners, in ascending order.

lam = ()
for step in range(8):
    tm = transition_measure(lam)
    pretty = ", ".join(f"content {c}: {p}" for c, p in zip(tm.atoms, tm.weights))
    print(f"{str(lam):<24} -> {pretty}")
    content = rng.choices(tm.atoms, weights=[float(p) for p in tm.weights])[0]
    lam = grow(lam, content)
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
