"""Parameterized verification checks.

Each check compares an independent route against the fast engine (brute-force
enumeration, finite differences, symmetry identities, coupling properties)
and reports a pass flag plus a short metric string.  The CLI validator runs
them at quick sizes; the acceptance suite runs the same code at full size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import ActivityField, DisorderSpec, ReplicaSeed, sample_field, sample_fields
from .engine import log_partition, occupation_probabilities, sample_exact
from .lattice import (
    BoundaryCondition,
    LatticeBox,
    box_lambda,
    centered_box,
    external_boundary,
    neighbours,
    reflect_theta,
)
from .mcmc import GlauberChain, _sweep, cftp_sample
from .observables import (
    _mean_stderr,
    annulus_bound_check,
    boundary_influence,
    derivative_identity_check,
    estimate_response_gap,
    expected_gap_bound,
    influence_table,
    pathwise_gap_bound,
    response_gap,
)
from .oracle import enumerate_independent_sets, oracle_log_partition, oracle_occupations


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# -- random exact-arithmetic instances ---------------------------------------


def _dyadic_values(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    vals = rng.integers(1, 33, size=shape) / 16.0
    vals[rng.random(shape) < 0.15] = 0.0
    return vals


def _random_bc(rng: np.random.Generator, box: LatticeBox) -> BoundaryCondition:
    kind = ("even", "odd", "empty", "custom")[rng.integers(4)]
    if kind != "custom":
        return BoundaryCondition(kind)
    frame = sorted(external_boundary(box))
    occupied: set = set()
    for k in rng.permutation(len(frame)):
        if rng.random() < 0.4 and not any(w in occupied for w in neighbours(frame[k])):
            occupied.add(frame[k])
    return BoundaryCondition("custom", frozenset(occupied))


def _random_instance(
    rng: np.random.Generator, max_side: int, lams=(0.5, 1.0, 5.0)
) -> tuple[LatticeBox, ActivityField, BoundaryCondition]:
    w = int(rng.integers(1, max_side + 1))
    h = int(rng.integers(1, max_side + 1))
    x0 = int(rng.integers(-3, 4))
    y0 = int(rng.integers(-3, 4))
    box = LatticeBox(x0, x0 + w - 1, y0, y0 + h - 1)
    region = box if rng.random() < 0.5 else box.expand(1)
    scale = float(lams[rng.integers(len(lams))])
    field = ActivityField(region, _dyadic_values(rng, (region.width, region.height)), scale)
    return box, field, _random_bc(rng, box)


# -- engine vs enumeration ----------------------------------------------------


def check_oracle_equivalence(instances: int, seed: int) -> tuple[CheckResult, CheckResult]:
    rng = np.random.default_rng(seed)
    tol = 1e-10
    worst_z = 0.0
    worst_p = 0.0
    for _ in range(instances):
        box, field, bc = _random_instance(rng, 4)
        got = log_partition(box, field, bc)
        want = oracle_log_partition(box, field, bc).log()
        worst_z = max(worst_z, abs(got - want))
        table = occupation_probabilities(box, field, bc)
        exact = oracle_occupations(box, field, bc)
        for v, p in exact.items():
            worst_p = max(worst_p, abs(table[v] - float(p)))
    return (
        CheckResult("oracle-logz", worst_z <= tol, f"n={instances} max|dlogZ|={worst_z:.2e}"),
        CheckResult("oracle-marginals", worst_p <= tol, f"n={instances} max|dp|={worst_p:.2e}"),
    )


def check_derivative_identity(instances: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < instances:
        box, field, bc = _random_instance(rng, 6)
        live = [v for v in box.sites() if field.value_at(v) > 0]
        if not live:
            continue
        v = live[rng.integers(len(live))]
        fd, marginal = derivative_identity_check(box, field, bc, v)
        worst = max(worst, abs(fd - marginal))
        done += 1
    return CheckResult("derivative-identity", worst <= 1e-6, f"n={instances} max|fd-p|={worst:.2e}")


def check_translation_covariance(instances: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    swap = {"even": "odd", "odd": "even"}
    for _ in range(instances):
        box, field, bc = _random_instance(rng, 4)
        a = (int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
        kind = swap.get(bc.kind, bc.kind) if (a[0] + a[1]) % 2 else bc.kind
        moved_bc = BoundaryCondition(kind, frozenset((x + a[0], y + a[1]) for x, y in bc.custom_occupied))
        moved_field = ActivityField(field.region.translated(a), field.values, field.scale)
        base = log_partition(box, field, bc)
        moved = log_partition(box.translated(a), moved_field, moved_bc)
        worst = max(worst, abs(base - moved))
    return CheckResult("translation-covariance", worst <= 1e-12, f"n={instances} max|d|={worst:.2e}")


def check_reflection_symmetry(instances: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        j = int(rng.integers(1, 4))
        box = box_lambda(j)
        region = box if rng.random() < 0.5 else box.expand(1)
        vals = _dyadic_values(rng, (region.width, region.height))
        # copy the x <= 0 half onto the x >= 1 half to force mirror symmetry
        for x in range(1, region.x_max + 1):
            vals[x - region.x_min, :] = vals[1 - x - region.x_min, :]
        sym = ActivityField(region, vals, float((0.5, 1.0, 5.0)[rng.integers(3)]))
        assert sym.compose(reflect_theta) == sym
        even = log_partition(box, sym, "even")
        odd = log_partition(box, sym, "odd")
        worst = max(worst, abs(even - odd))
    return CheckResult("reflection-symmetry", worst <= 1e-12, f"n={instances} max|d|={worst:.2e}")


# -- boundary influence -------------------------------------------------------


def check_influence_sign(sides, n_disorder: int, seed: int) -> CheckResult:
    spec = DisorderSpec("bernoulli", (0.7,))
    worst = math.inf
    count = 0
    for side in sides:
        box = centered_box(side, side)
        for lam in (1.0, 5.0):
            fields = [ActivityField(box.expand(1), np.ones((side + 2, side + 2)), lam)]
            fields += sample_fields(spec, box.expand(1), lam, seed, 0, n_disorder)
            gaps = influence_table(box, fields)
            signed = np.where(np.add(*box.coords()) % 2 == 0, gaps, -gaps)
            # builtin min keeps the first of equal minima: a zero minimum keeps the sign it has in site order
            worst = min([worst, *signed.ravel().tolist()])
            count += gaps.size
    return CheckResult(
        "influence-sign", worst >= -1e-12, f"checks={count} min parity-signed gap={worst:.2e}"
    )


def check_influence_contrast(seed: int) -> CheckResult:
    sides, lam = (4, 8, 12), 5.0
    pure_gap = {}
    for side in sides:
        box = centered_box(side, side)
        field = ActivityField(box.expand(1), np.ones((side + 2, side + 2)), lam)
        pure_gap[side] = float(boundary_influence(box, [field], (0, 0))[0])
    region = centered_box(sides[-1], sides[-1]).expand(1)
    fields = sample_fields(DisorderSpec("bernoulli", (0.7,)), region, lam, seed, 0, 200)
    medians = [float(np.median(boundary_influence(centered_box(s, s), fields, (0, 0)))) for s in sides]
    persistent = pure_gap[sides[-1]] >= 0.05 * pure_gap[sides[0]] > 0
    decaying = all(a > b for a, b in zip(medians, medians[1:]))
    detail = (
        f"pure gap {pure_gap[sides[0]]:.4f}->{pure_gap[sides[-1]]:.4f}, "
        f"diluted medians {', '.join(f'{m:.4f}' for m in medians)}"
    )
    return CheckResult("influence-contrast", persistent and decaying, detail)


# -- annulus and pathwise bounds ----------------------------------------------


def check_annulus_and_pathwise(instances: int, seed: int) -> tuple[CheckResult, CheckResult]:
    rng = np.random.default_rng(seed)
    js, Ls, lams, tol = (1, 2), (3, 4), (1.0, 4.0), 1e-9
    specs = (DisorderSpec("bernoulli", (0.7,)), DisorderSpec("uniform", (0.0, 2.0)))
    groups: dict[tuple[int, int], list[ActivityField]] = {}  # one stacked solve per (j, L)
    for k in range(instances):
        j, L = int(js[rng.integers(len(js))]), int(Ls[rng.integers(len(Ls))])
        lam = float(lams[rng.integers(len(lams))])
        spec = specs[rng.integers(len(specs))]
        field = sample_field(spec, box_lambda(L).expand(1), lam, ReplicaSeed(seed, k))
        groups.setdefault((j, L), []).append(field)
    ann_ok = True
    worst_margin = -math.inf
    worst_path = -math.inf
    for (j, L), fields in groups.items():
        gap, lhs, rhs = annulus_bound_check(L, j, fields)
        ann_ok = ann_ok and bool(np.all(lhs <= rhs + tol))
        worst_margin = max(worst_margin, float((lhs - rhs).max()))
        excess = np.abs(gap) - pathwise_gap_bound(fields, j)
        worst_path = max(worst_path, float(excess.max()))
    return (
        CheckResult("annulus-bound", ann_ok, f"n={instances} worst lhs-rhs={worst_margin:.2e}"),
        CheckResult("pathwise-gap-bound", worst_path <= tol, f"n={instances} worst excess={worst_path:.2e}"),
    )


def check_estimate_bound(seed: int, combos=((1, 3), (2, 4)), replicas: int = 60) -> CheckResult:
    ok = True
    worst_ratio = 0.0
    for j, L in combos:
        for lam in (1.0, 4.0):
            for spec in (DisorderSpec("bernoulli", (0.5,)), DisorderSpec("uniform", (0.0, 2.0))):
                inside = sample_field(spec, box_lambda(j), lam, ReplicaSeed(seed, 10**6))
                mean, err = estimate_response_gap(L, j, inside, spec, replicas, seed)
                cap = expected_gap_bound(j, lam, spec) + 4.0 * err
                ok = ok and abs(mean) <= cap
                worst_ratio = max(worst_ratio, abs(mean) / cap)
    return CheckResult("estimate-bound", ok, f"max |mean|/cap={worst_ratio:.3f}")


def check_step1_mean(
    seed: int, lams=(1.0, 4.0), j: int = 2, L: int = 4, replicas: int = 400
) -> CheckResult:
    worst_z = 0.0
    for spec in (DisorderSpec("bernoulli", (0.5,)), DisorderSpec("uniform", (0.0, 2.0))):
        for lam in lams:
            fields = sample_fields(spec, box_lambda(L).expand(1), lam, seed, 0, replicas)
            mean, stderr = _mean_stderr(response_gap(L, j, fields))
            worst_z = max(worst_z, abs(mean) / stderr)
    return CheckResult("step1-mean", worst_z <= 4.0, f"max |mean|/stderr={worst_z:.2f}")


def check_variance_band(seed: int) -> CheckResult:
    """Test that var(gap)/|inner box| of 300 bernoulli(0.5) replicas at scale 4,
    L = 2j, is non-degenerate and decays over j = 1, 2, 3.

    Passes iff the ratio at the smallest j exceeds 1e-4 and each later ratio
    is below half the previous one: the ratio leaves any factor-2 window
    downward at every step.

    A ratio flat in j, the volume-order variance that marks even/odd
    coexistence in the Aizenman-Wehr argument (Commun. Math. Phys. 130,
    1990), is not what the model has under subcritical dilution; acceptance
    criterion 07 rests on this argument. log Z factorises over the connected
    components of live sites; switching off the inner box touches only the
    components that meet it, and the frame parity only those next to a live
    frame site. So the gap is exactly zero unless a live path through the
    moat joins the inner box to a live frame site. With the live density
    below the site-percolation threshold (p_c ~ 0.5927 on the square
    lattice; bernoulli(0.5) is below it) the chance of crossing
    a moat of width L - j decays exponentially. For bounded activities the
    square of the pathwise cap, (2/scale) times the log sum over the 8j + 4
    annulus sites, is of the order of the 4j^2 volume, so the cap alone does
    not force decay in two dimensions; E[gap^2]/volume is at most a constant
    times the crossing probability and goes to zero as j grows. At j <= 3 a
    crossing still exists in nearly every replica, so the moat's cut-off
    governs large j, not these sizes.
    """
    js = (1, 2, 3)
    fields = sample_fields(DisorderSpec("bernoulli", (0.5,)), box_lambda(6).expand(1), 4.0, seed, 0, 300)
    gaps = [response_gap(2 * j, j, fields) for j in js]
    ratios = [float(g.var(ddof=1)) / (2 * j) ** 2 for j, g in zip(js, gaps)]
    ok = ratios[0] > 1e-4 and all(b < a / 2.0 for a, b in zip(ratios, ratios[1:]))
    detail = "var/site " + ", ".join(f"j={j}:{q:.2e}" for j, q in zip(js, ratios))
    return CheckResult("variance-scaling", ok, detail)


# -- sampling -----------------------------------------------------------------


def check_monotone_order(total_sweeps: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    done = 0
    instances = 0
    while done < total_sweeps:
        box, field, bc = _random_instance(rng, 4, lams=(0.5, 1.0, 5.0, 10.0))
        chain = GlauberChain(box, field, bc)
        pair = chain.start
        instances += 1
        for rises in chain.rises(rng.random((min(250, total_sweeps - done), box.site_count))):
            pair = _sweep(pair, rises)
            if not chain.ordered(pair):
                return CheckResult("monotone-order", False, "monotone coupling lost its order; kernel bug")
            done += 1
    return CheckResult("monotone-order", True, f"sweeps={done} instances={instances}")


def _chi2_p(counts: np.ndarray) -> float:
    """Pearson chi-square p of a 2 x k table of draw counts, k - 1 degrees of
    freedom; a state that neither sampler drew leaves no test, and raises."""
    import scipy.special  # here, not at module level: most runs never need scipy

    expected = counts.sum(axis=1, keepdims=True) * counts.sum(axis=0, keepdims=True) / counts.sum()
    if np.any(expected == 0):
        raise ValueError("a state has no draws from either sampler")
    return float(scipy.special.chdtrc(counts.shape[1] - 1, ((counts - expected) ** 2 / expected).sum()))


def check_cftp_exactness(draws: int, seed: int, boxes=((2, 2), (3, 2))) -> CheckResult:
    worst_p = 1.0
    for w, h in boxes:
        box = centered_box(w, h)
        field = ActivityField(box, np.ones((w, h)), 1.0)
        states = {tuple(sum(1 << y - box.y_min for x, y in s if x == c) for c in range(box.x_min, box.x_max + 1)): i
                  for i, s in enumerate(enumerate_independent_sets(box))}  # packed columns -> state index
        counts = np.zeros((2, len(states)), dtype=np.int64)
        drawn = [cftp_sample(box, field, "empty", ReplicaSeed(seed, i)).columns for i in range(draws)]
        drawn += map(tuple, sample_exact(box, field, "empty", np.random.default_rng(seed), draws).tolist())
        for k, columns in enumerate(drawn):  # the CFTP draws, then the exact ones
            counts[k // draws, states[columns]] += 1
        worst_p = min(worst_p, _chi2_p(counts))
    return CheckResult("cftp-vs-exact", worst_p >= 1e-3, f"min chi2 p={worst_p:.3f}")


# -- quick composite ----------------------------------------------------------


def _guarded(name: str, fn, *args, **kwargs) -> list[CheckResult]:
    # a broken build must surface as FAIL rows, not a traceback
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:
        return [CheckResult(name, False, f"crashed: {exc!r}")]
    return list(out) if isinstance(out, tuple) else [out]


def run_quick_suite(seed: int) -> list[CheckResult]:
    """Oracle-equivalence and invariant checks at reduced size; used by the CLI
    validator.

    The variance-band check is deliberately absent: it is an empirical claim
    about fluctuation magnitudes, not an invariant, and it lives in the
    acceptance tests. See check_variance_band.
    """
    results: list[CheckResult] = []
    results.extend(_guarded("oracle-equivalence", check_oracle_equivalence, instances=120, seed=seed))
    results.extend(_guarded("derivative-identity", check_derivative_identity, instances=40, seed=seed + 1))
    results.extend(_guarded("translation-covariance", check_translation_covariance, instances=25, seed=seed + 2))
    results.extend(_guarded("reflection-symmetry", check_reflection_symmetry, instances=25, seed=seed + 3))
    results.extend(_guarded("influence-sign", check_influence_sign, sides=(2, 3, 4, 5), n_disorder=6, seed=seed + 4))
    results.extend(_guarded("annulus-bound", check_annulus_and_pathwise, instances=60, seed=seed + 5))
    results.extend(_guarded("estimate-bound", check_estimate_bound, seed=seed + 6, combos=((1, 3),), replicas=40))
    results.extend(_guarded("step1-mean", check_step1_mean, seed=seed + 7, lams=(1.0,), j=1, L=2, replicas=150))
    results.extend(_guarded("monotone-order", check_monotone_order, total_sweeps=2000, seed=seed + 9))
    results.extend(_guarded("cftp-vs-exact", check_cftp_exactness, draws=2000, seed=seed + 10, boxes=((2, 2),)))
    return results
