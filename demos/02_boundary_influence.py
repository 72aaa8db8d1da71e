"""Boundary-parity influence on the origin occupation.

The even and odd boundary frames pull the origin occupation apart. Without
disorder the pull persists as the box grows (for large activity); with site
dilution it dies off.
"""
import numpy as np

from hardcore2d import (
    ActivityField,
    DisorderSpec,
    ReplicaSeed,
    boundary_influence,
    centered_box,
    occupation_probability,
    sample_field,
)

LAM = 5.0

print("pure activities, scale 5: origin gap p_even - p_odd")
for side in (4, 8, 12):
    box = centered_box(side, side)
    f = ActivityField(box.expand(1), np.ones((side + 2, side + 2)), LAM)
    p_even, p_odd = (occupation_probability(box, f, (0, 0), bc) for bc in ("even", "odd"))
    gap = boundary_influence(box, [f], (0, 0))[0]
    print(f"  side {side:2d}: p_even={p_even:.4f}  p_odd={p_odd:.4f}  gap={gap:.4f}")

print()
print("bernoulli(0.7) dilution, scale 5: median origin gap over 60 replicas")
spec = DisorderSpec("bernoulli", (0.7,))
for side in (4, 8, 12):
    box = centered_box(side, side)
    fields = [sample_field(spec, box.expand(1), LAM, ReplicaSeed(2026, rep)) for rep in range(60)]
    gaps = boundary_influence(box, fields, (0, 0))  # one entry per replica
    med = float(np.median(gaps))
    print(f"  side {side:2d}: median gap = {med:.4f}")

print()
print("the pure gap persists; the diluted gap decays with the side length")
