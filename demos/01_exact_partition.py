"""Exact partition functions and marginals on small boxes.

Walks through the transfer-scan engine on desk-sized examples and
cross-checks everything against brute-force enumeration.
"""
import math

import numpy as np

from hardcore2d import (
    ActivityField,
    EVEN_BC,
    box_lambda,
    centered_box,
    log_partition,
    occupation_probabilities,
    oracle_log_partition,
    oracle_occupations,
)

# a 2x2 box with every activity equal to 1 has 7 independent sets
box = centered_box(2, 2)
f = ActivityField(box, np.ones((2, 2)), 1.0)
print("2x2, activities 1:")
print(f"  engine log Z = {log_partition(box, f).log_z:.12f}")
print(f"  log 7        = {math.log(7):.12f}")

# doubling every activity weights sets by 2^|set|: Z = 1 + 4*2 + 2*4 = 17
f2 = ActivityField(box, np.full((2, 2), 2.0), 1.0)
print(f"2x2, activities 2: engine log Z = {log_partition(box, f2).log_z:.12f}, log 17 = {math.log(17):.12f}")

# an even boundary frame blocks the odd sublattice of the 2x2 centered box
lam1 = box_lambda(1)
f1 = ActivityField(lam1, np.ones((2, 2)), 1.0)
print(f"even frame on the 2j=2 box: log Z = {log_partition(lam1, f1, EVEN_BC).log_z:.12f} (log 4 = {math.log(4):.12f})")
probs = occupation_probabilities(lam1, f1, EVEN_BC)
print(f"  occupation under the even frame: even site {probs[(0, 0)]:.3f}, odd site {probs[(1, 0)]:.3f}")

# random rational activities, random box: engine vs enumeration
rng = np.random.default_rng(1)
box = centered_box(4, 3)
vals = rng.integers(1, 33, size=(4, 3)) / 16.0
vals[rng.random((4, 3)) < 0.2] = 0.0  # some deleted sites
f = ActivityField(box, vals, 5.0)
eng = log_partition(box, f, EVEN_BC).log_z
ora = oracle_log_partition(box, f, EVEN_BC).log()
print(f"random 4x3 instance: engine {eng:.15f} vs oracle {ora:.15f} (diff {abs(eng - ora):.2e})")

marg = occupation_probabilities(box, f, EVEN_BC)
exact = oracle_occupations(box, f, EVEN_BC)
worst = max(abs(marg[v] - float(exact[v])) for v in box.sites())
print(f"marginals: worst |engine - oracle| = {worst:.2e}")

# a tall strip and its transpose run the same scan at heights 20 and 2
tall, wide = centered_box(2, 20), centered_box(20, 2)
zt = log_partition(tall, ActivityField(tall, np.ones((2, 20)), 1.0)).log_z
zw = log_partition(wide, ActivityField(wide, np.ones((20, 2)), 1.0)).log_z
print(f"2x20 strip: log Z = {zt:.6f}, transposed {zw:.6f}")
