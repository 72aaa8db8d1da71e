"""Free-energy responses, parity influence, annulus bounds, estimators."""
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from hardcore2d import validation
from hardcore2d.disorder import ActivityField, DisorderSpec, ReplicaSeed, sample_field
from hardcore2d.lattice import EVEN_BC, ODD_BC, box_lambda, centered_box, reflect_theta
from hardcore2d.observables import (
    ScalingRow,
    annulus_bound_check,
    annulus_log_sum,
    boundary_influence,
    derivative_identity_check,
    estimate_response_gap,
    fluctuation_scaling,
    free_energy_response,
    influence_table,
    l_doubling_shift,
    log_gain_mean,
    pathwise_gap_bound,
    per_site_gap_bound,
    response_gap,
    sampled_response_gap,
)
from hardcore2d.oracle import oracle_log_partition

SEED = 20260815


def unit_field(region, scale):
    return ActivityField(region, np.ones((region.width, region.height)), scale)


def random_field(L, spec, scale, replica):
    return sample_field(spec, box_lambda(L).expand(1), scale, ReplicaSeed(SEED, replica))


def test_response_is_zero_when_field_is_one_inside():
    f = unit_field(box_lambda(2).expand(1), 2.0)
    r = free_energy_response(2, box_lambda(1), f, "even")
    assert r.value == 0.0


def test_response_two_point_identity():
    # switching a single site on and off compares two explicit partitions
    spec = DisorderSpec.uniform(0.5, 2.0)
    f = random_field(2, spec, 3.0, 0)
    inner = centered_box(1, 1)
    r = free_energy_response(2, inner, f, "odd")
    x = f.value_at((0, 0))
    from hardcore2d.engine import log_partition

    z_on = log_partition(box_lambda(2), f, "odd")
    z_off = log_partition(box_lambda(2), f.switched_off(inner), "odd")
    assert r.value == pytest.approx((z_on - z_off) / 3.0, abs=1e-14)
    assert x != 1.0


def test_gap_vanishes_for_constant_field():
    # reflection swaps the two frames and fixes a constant field
    for lam in (0.5, 4.0):
        f = unit_field(box_lambda(3).expand(1), lam)
        assert response_gap(3, box_lambda(1), f) == pytest.approx(0.0, abs=1e-12)


def test_gap_is_zero_without_a_live_crossing():
    # the frame parity reaches the inner box only along live paths: kill the
    # ring around it and the gap vanishes whatever the other activities are
    L, j = 3, 1
    region = box_lambda(L).expand(1)
    vals = np.random.default_rng(SEED).uniform(0.5, 2.0, (region.width, region.height))
    alive = ActivityField(region, vals, 4.0)
    moat = vals.copy()
    for v in box_lambda(j + 1).sites():
        if not box_lambda(j).contains(v):
            moat[v[0] - region.x_min, v[1] - region.y_min] = 0.0
    cut = ActivityField(region, moat, 4.0)
    assert abs(response_gap(L, box_lambda(j), cut)) <= 1e-12
    assert abs(response_gap(L, box_lambda(j), alive)) > 1e-6


def test_gap_flips_sign_under_reflection():
    spec = DisorderSpec.bernoulli(0.6)
    f = random_field(2, spec, 2.0, 3)
    mirrored = f.compose(reflect_theta)
    a = response_gap(2, box_lambda(1), f)
    b = response_gap(2, box_lambda(1), mirrored)
    assert a == pytest.approx(-b, abs=1e-12)


def test_annulus_log_sum_counts_the_ring():
    f = unit_field(box_lambda(3), 1.0)
    ring = box_lambda(3).site_count - box_lambda(2).site_count
    assert annulus_log_sum(f, 2) == pytest.approx(ring * math.log(2.0))
    assert pathwise_gap_bound(f, 2) == pytest.approx(2.0 * ring * math.log(2.0))


def test_pathwise_bound_dominates_gap():
    spec = DisorderSpec.uniform(0.0, 2.0)
    for rep in range(25):
        f = random_field(3, spec, 4.0, rep)
        gap = response_gap(3, box_lambda(1), f)
        assert abs(gap) <= pathwise_gap_bound(f, 1) + 1e-9


def test_annulus_bound_check_both_orders():
    spec = DisorderSpec.bernoulli(0.7)
    for rep in range(10):
        f = random_field(3, spec, 1.0, 100 + rep)
        checks = annulus_bound_check(3, 1, f)
        assert len(checks) == 2
        assert {c.bc_from for c in checks} == {"even", "odd"}
        for c in checks:
            assert c.holds
            assert c.lhs <= c.rhs + 1e-9


def test_influence_sign_at_small_grid():
    box = centered_box(4, 4)
    f = unit_field(box.expand(1), 5.0)
    table = influence_table(box, f)
    from hardcore2d.lattice import is_even

    for v, gap in table.items():
        assert gap >= -1e-12 if is_even(v) else gap <= 1e-12


def test_boundary_influence_matches_table():
    box = centered_box(3, 3)
    f = unit_field(box.expand(1), 2.0)
    g = boundary_influence(box, f, (0, 0))
    assert g.gap == pytest.approx(influence_table(box, f)[(0, 0)], abs=1e-14)
    assert g.p_even > g.p_odd


def test_derivative_identity_on_random_instance():
    spec = DisorderSpec.uniform(0.5, 1.5)
    f = random_field(2, spec, 1.0, 7)
    chk = derivative_identity_check(box_lambda(2), f, "even", (0, 1))
    assert chk.finite_difference == pytest.approx(chk.marginal, abs=1e-6)
    with pytest.raises(ValueError):
        derivative_identity_check(box_lambda(2), f, "even", (0, 1), h=0.5)


def test_log_gain_mean_closed_forms_match_quadrature():
    lam = 3.0
    cases = [
        DisorderSpec.constant(2.0),
        DisorderSpec.bernoulli(0.4),
        DisorderSpec.uniform(0.0, 2.0),
    ]
    for spec in cases:
        got = log_gain_mean(spec, lam)
        if spec.family == "constant":
            want = math.log1p(lam * spec.params[0])
        elif spec.family == "bernoulli":
            want = spec.params[0] * math.log1p(lam)
        else:
            a, b = spec.params
            want, _ = scipy.integrate.quad(lambda x: math.log1p(lam * x) / (b - a), a, b)
        assert got == pytest.approx(want, rel=1e-9)


def test_per_site_gap_bound_scales():
    lam = 2.0
    spec = DisorderSpec.gamma(2.0, 0.5)
    assert per_site_gap_bound(lam, spec) == pytest.approx(2.0 / lam * log_gain_mean(spec, lam))
    assert per_site_gap_bound(lam, DisorderSpec.constant(0.0)) == 0.0


def test_sampled_gap_reproducible():
    spec = DisorderSpec.bernoulli(0.5)
    a = sampled_response_gap(2, 1, spec, 4.0, ReplicaSeed(SEED, 5))
    b = sampled_response_gap(2, 1, spec, 4.0, ReplicaSeed(SEED, 5))
    assert a == b
    c = sampled_response_gap(2, 1, spec, 4.0, ReplicaSeed(SEED, 6))
    assert a != c


def test_estimate_response_gap_statistics():
    spec = DisorderSpec.uniform(0.0, 2.0)
    inside = sample_field(spec, box_lambda(1), 2.0, ReplicaSeed(SEED, 999))
    est = estimate_response_gap(3, 1, inside, spec, replicas=50, seed=SEED)
    assert est.replicas == 50
    assert est.std_error > 0
    # the conditional mean is bounded by the per-site constant times the ring
    ring = box_lambda(2).site_count - box_lambda(1).site_count
    cap = per_site_gap_bound(2.0, spec) * ring
    assert abs(est.mean) <= cap + 4 * est.std_error


def test_estimate_requires_two_replicas():
    spec = DisorderSpec.bernoulli(0.5)
    inside = sample_field(spec, box_lambda(1), 1.0, ReplicaSeed(SEED, 0))
    with pytest.raises(ValueError):
        estimate_response_gap(2, 1, inside, spec, replicas=1, seed=SEED)


def test_fluctuation_scaling_rows():
    spec = DisorderSpec.bernoulli(0.5)
    rows = fluctuation_scaling((1, 2), 4.0, spec, replicas=40, seed=SEED)
    assert [r.j for r in rows] == [1, 2]
    assert rows[0].volume == 4 and rows[1].volume == 16
    for r in rows:
        assert r.replicas == 40
        assert r.variance >= 0
        assert r.variance_per_site == pytest.approx(r.variance / r.volume)


def test_fluctuation_scaling_constant_disorder_is_degenerate():
    rows = fluctuation_scaling((1,), 2.0, DisorderSpec.constant(1.5), replicas=30, seed=SEED)
    assert rows[0].variance == pytest.approx(0.0, abs=1e-24)


def test_sampled_gaps_match_oracle_at_criterion_07_smallest_size():
    # criterion 07's j = 1 battery: 16-site boxes, inside the oracle's cap
    spec, lam, L, j = DisorderSpec.bernoulli(0.5), 4.0, 2, 1
    box = box_lambda(L)
    for r in range(50):
        seed = ReplicaSeed(SEED + 8, r)
        field = sample_field(spec, box.expand(1), lam, seed)
        off = field.switched_off(box_lambda(j))
        want = (
            oracle_log_partition(box, field, EVEN_BC).log()
            - oracle_log_partition(box, off, EVEN_BC).log()
            - oracle_log_partition(box, field, ODD_BC).log()
            + oracle_log_partition(box, off, ODD_BC).log()
        ) / lam
        assert sampled_response_gap(L, j, spec, lam, seed) == pytest.approx(want, abs=1e-12)


def test_variance_band_fails_on_zero_gap():
    res = validation.check_variance_band(
        seed=SEED, js=(1, 2), spec=DisorderSpec.constant(1.5), replicas=30
    )
    assert not res.passed


@pytest.mark.parametrize(
    "ratios, passed",
    [
        ((1e-2, 1e-3, 1e-4), True),
        ((1e-2, 1e-2, 1e-2), False),
        ((1e-2, 6e-3, 1e-3), False),
        ((1e-2, 1e-3, 6e-4), False),
        ((5e-5, 1e-6, 1e-8), False),
    ],
)
def test_variance_band_asks_decay_at_every_step(monkeypatch, ratios, passed):
    def fake_scaling(js, lam, spec, replicas, seed):
        return [
            ScalingRow(j, 4 * j * j, 0.0, 4 * j * j * q, q, replicas) for j, q in zip(js, ratios)
        ]

    monkeypatch.setattr(validation, "fluctuation_scaling", fake_scaling)
    res = validation.check_variance_band(seed=SEED)
    assert res.passed == passed
    assert res.detail.startswith("var/site j=1:")


def test_doubling_shift_reports_two_sizes():
    spec = DisorderSpec.bernoulli(0.5)
    inside = sample_field(spec, box_lambda(1), 2.0, ReplicaSeed(SEED, 1))
    near, far = l_doubling_shift(1, inside, spec, replicas=20, seed=SEED)
    assert near.L == 2 and far.L == 4
    assert near.j == far.j == 1
