"""Disorder fluctuations of the even/odd response gap across box sizes.

Two regimes:

* with 50 percent dilution everywhere, var/volume falls about tenfold per
  step in j, as acceptance criterion 07 asserts; the docstring of
  hardcore2d.validation.check_variance_band says why;
* with a pure (undiluted) moat and disorder only inside the inner box, the
  gap variance stays of the order of the ring size. That is a measurement,
  not a consequence of the pathwise annulus cap, which alone would allow
  volume-order variance.

Neither regime produces variance proportional to the inner-box volume.
"""
import numpy as np

from hardcore2d import ActivityField, DisorderSpec, box_lambda, response_gap, sample_fields

LAM = 4.0
REPS = 200
spec = DisorderSpec("bernoulli", (0.5,))

print(f"disorder everywhere ({spec.label()}, scale {LAM}), outer half-side 2j:")
for j in (1, 2, 3):
    fields = sample_fields(spec, box_lambda(2 * j).expand(1), LAM, 2026, 0, REPS)
    var = float(response_gap(2 * j, j, fields).var(ddof=1))
    print(f"  j={j}: var={var:.4e}  var/volume={var / box_lambda(j).site_count:.4e}")
print("  -> var/volume decays: the gap needs a live crossing of the diluted moat")

print()
print("disorder only inside the inner box, pure moat:")
for j in (1, 2, 3):
    L = 2 * j
    region = box_lambda(L).expand(1)
    pure = ActivityField(region, np.ones((region.width, region.height)), LAM)
    inners = sample_fields(spec, box_lambda(j), LAM, 2026, 0, REPS)
    gaps = response_gap(L, j, [pure.patched(f, box_lambda(j)) for f in inners])
    var = gaps.var(ddof=1)
    ring = box_lambda(j + 1).site_count - box_lambda(j).site_count
    print(f"  j={j}: var={var:.4e}  var/ring={var / ring:.4e}")
print("  -> var/ring stays of one order: ring-order growth, not volume growth")
