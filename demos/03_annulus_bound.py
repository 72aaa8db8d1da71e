"""Free-energy response to switching the inner field off, and its annulus cap.

The even/odd response gap is bounded pathwise by twice the log-gain summed
over the ring between the inner box and its one-step enlargement, divided by
the activity scale. The demo verifies the bound replica by replica and
compares the running mean against the per-site constant.
"""
import numpy as np

from hardcore2d import (
    DisorderSpec,
    ReplicaSeed,
    annulus_bound_check,
    box_lambda,
    expected_gap_bound,
    pathwise_gap_bound,
    response_gap,
    sample_field,
)

L, J, LAM = 3, 1, 4.0
spec = DisorderSpec("uniform", (0.0, 2.0))
region = box_lambda(L).expand(1)

print(f"outer half-side {L}, inner half-side {J}, scale {LAM}, disorder {spec.label()}")
fields = [sample_field(spec, region, LAM, ReplicaSeed(7, rep)) for rep in range(40)]
gaps = response_gap(L, J, fields)  # one entry per replica
bounds = pathwise_gap_bound(fields, J)
assert np.all(np.abs(gaps) <= bounds + 1e-9)
print(f"40 replicas: max |gap| = {np.abs(gaps).max():.4f}, min bound = {np.min(bounds):.4f} (bound held every time)")

cap = expected_gap_bound(J, LAM, spec)
mean = float(np.mean(gaps))
stderr = float(np.std(gaps, ddof=1) / np.sqrt(len(gaps)))
print(f"mean gap = {mean:+.4f} +- {stderr:.4f}; per-site constant x ring = {cap:.4f}")
print("the mean sits around zero, far inside the deterministic cap")

print()
print("two-sided annulus inequality on one replica:")
lhs, rhs = annulus_bound_check(L, J, fields[:1])  # a stack of one replica
for (tau, tau2), side in zip((("even", "odd"), ("odd", "even")), lhs[:, 0]):
    print(f"  {tau}->{tau2}: lhs {side:+.4f} <= rhs {rhs[0]:.4f}  holds={side <= rhs[0] + 1e-9}")
