"""
Exact covariances marching toward their limits
==============================================

"""

from fractions import Fraction

from wreathprob.asymptotics import convergence_report
from wreathprob.groups import cyclic_group
from wreathprob.wreath import Example1Family

############################################################
# The family: q boxes colored independently by the two characters
# of the order-2 group, each color equally likely.

fam = Example1Family(cyclic_group(2))
params = fam.limits(max_index=4)
print("limit densities:", dict(params.c))

############################################################
# Scaled covariance of the length-l cycle indicators on slot 0.
# The predicted limit is l * c^l with c = 1/2; every table entry
# below is an exact rational, no floating point involved.

for l in (1, 2, 3):
    predicted = params.covariance(0, l, 0, l)
    report = convergence_report(
        fam, 3, [(0, l), (0, l)], [8, 16, 24, 32], limit=predicted
    )
    print(f"\ncycle length {l}, predicted limit {predicted}")
    print("    q   scaled value        abs error")
    for q, _, scaled, _, err in report.rows:
        print(f"  {q:>3}   {str(scaled):<16}  {str(err)}")
    print("  verdict:", report.verdict)

############################################################
# Across slots only the single-box indicators stay correlated in
# the limit: the block sizes must sum to q.

cross = convergence_report(
    fam, 3, [(0, 1), (1, 1)], [8, 16, 24], limit=Fraction(-1, 4)
)
print("\ncross-slot single rows, scaled values:", [str(r[2]) for r in cross.rows])
print("verdict:", cross.verdict)
