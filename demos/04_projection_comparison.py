"""When is a 2-D method enough?  Score Chain-Ladder against simulated truth.

For each replicate the full world is simulated, so the actual future
payments are known exactly.  Chain-Ladder runs on both 2-D projections of
the known region, and the closed-form 3-D mean joins as a third estimator.
Bias and RMSE are reported per estimator against its target.
"""

import claimcube as cc

REPLICATES = 200
SEED = 99

# a growing portfolio: the occurrence projection keeps the growth visible,
# while the reporting projection mixes occurrence years within each row
params = cc.default_params()

comparison = cc.compare_2d_3d(params, REPLICATES, SEED)

print(f"{REPLICATES} replicates at the default portfolio\n")
header = f"{'estimator':28s} {'target':18s} {'bias':>14s} {'rmse':>14s} {'ok':>4s} {'fail':>5s}"
print(header)
print("-" * len(header))
for name in sorted(comparison.summary):
    s = comparison.summary[name]
    print(
        f"{s.estimator:28s} {s.target:18s} {s.bias:14,.1f} {s.rmse:14,.1f} "
        f"{s.replicates_ok:4d} {s.replicates_failed:5d}"
    )

print("\nreplicate 0 in detail:")
for name, estimates in comparison.estimates.items():
    truth = comparison.truths[comparison.summary[name].target][0]
    print(f"  {name:28s} estimate {estimates[0]:14,.1f}  truth {truth:14,.1f}")

print(
    "\nreading: the reporting-triangle Chain-Ladder addresses only the reserve of"
    "\nalready-reported claims (its rows are reporting years, IBNR rows do not exist"
    "\nyet), so it is scored against that target; the occurrence triangle and the"
    "\nanalytic mean aim at the total reserve."
    "\n\nthe large negative Chain-Ladder bias is the classic tail problem: this"
    "\nportfolio keeps paying for up to 40 years after reporting, but a 15-year"
    "\ntriangle cannot see past development year 14, and plain Chain-Ladder carries"
    "\nno tail factor.  The model knows the full run-off and quantifies exactly how"
    "\nmuch the 2-D view misses; shorten the run-off (max_runoff <= 14 with lag 0)"
    "\nand the occurrence-triangle bias collapses to sampling noise."
)
