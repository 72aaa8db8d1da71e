"""Disorder specs, seeded fields, and the field file format."""
import json
import math

import numpy as np
import pytest

from hardcore2d.disorder import (
    ActivityField,
    DisorderSpec,
    ReplicaSeed,
    field_from_json,
    field_to_json,
    moment_check,
    parity_imbalance,
    replace_at,
    sample_field,
    save_field,
    switch_off_inside,
)
from hardcore2d.lattice import box_lambda, centered_box, reflect_theta


def test_spec_parse_round_trip():
    for text in ("constant:2", "bernoulli:0.7", "uniform:0,2", "lognormal:0,0.5",
                 "gamma:2,1.5", "pareto:3,1"):
        spec = DisorderSpec.parse(text)
        assert spec.label() == text
        assert DisorderSpec.parse(spec.label()) == spec


def test_spec_validation():
    with pytest.raises(ValueError):
        DisorderSpec.parse("bernoulli:1.5")
    with pytest.raises(ValueError):
        DisorderSpec.parse("uniform:2,1")
    with pytest.raises(ValueError):
        DisorderSpec.parse("uniform:1,1")  # degenerate interval
    with pytest.raises(ValueError):
        DisorderSpec.parse("lognormal:0,0")
    with pytest.raises(ValueError):
        DisorderSpec.parse("gauss:0,1")


def test_draw_ranges_and_means():
    rng = np.random.default_rng(0)
    u = DisorderSpec.uniform(0.5, 2.0)
    vals = [u.draw(rng) for _ in range(200)]
    assert all(0.5 <= v < 2.0 for v in vals)
    assert u.mean() == pytest.approx(1.25)
    b = DisorderSpec.bernoulli(0.3)
    assert set(b.draw(rng) for _ in range(200)) <= {0.0, 1.0}
    assert b.mean() == pytest.approx(0.3)
    assert DisorderSpec.pareto(3.0, 2.0).mean() == pytest.approx(3.0)


def test_moment_check_flags():
    assert moment_check(DisorderSpec.bernoulli(0.5)).non_constant
    assert not moment_check(DisorderSpec.constant(2.0)).non_constant
    assert not moment_check(DisorderSpec.bernoulli(0.0)).non_constant
    assert not moment_check(DisorderSpec.bernoulli(1.0)).non_constant
    assert moment_check(DisorderSpec.pareto(3.0, 1.0)).finite_2_plus_eps
    assert not moment_check(DisorderSpec.pareto(2.0, 1.0)).finite_2_plus_eps
    assert moment_check(DisorderSpec.lognormal(0.0, 1.0)).finite_2_plus_eps


def test_field_values_depend_only_on_site_and_seed():
    spec = DisorderSpec.uniform(0.0, 2.0)
    small = sample_field(spec, box_lambda(1), 1.0, ReplicaSeed(42, 0))
    big = sample_field(spec, box_lambda(3), 1.0, ReplicaSeed(42, 0))
    for v in box_lambda(1).sites():
        assert small.value_at(v) == big.value_at(v)
    other_replica = sample_field(spec, box_lambda(1), 1.0, ReplicaSeed(42, 1))
    assert any(small.value_at(v) != other_replica.value_at(v) for v in box_lambda(1).sites())
    again = sample_field(spec, box_lambda(1), 1.0, ReplicaSeed(42, 0))
    assert small == again


def test_value_defaults_to_one_outside_region():
    f = sample_field(DisorderSpec.constant(3.0), box_lambda(1), 2.0, ReplicaSeed(0, 0))
    assert f.value_at((50, 50)) == 1.0
    assert f.value_at((0, 0)) == 3.0
    assert f.activity_at((0, 0)) == pytest.approx(6.0)


def test_switch_off_and_replace():
    spec = DisorderSpec.uniform(0.5, 1.5)
    f = sample_field(spec, box_lambda(2), 2.0, ReplicaSeed(7, 0))
    off = switch_off_inside(f, box_lambda(1))
    for v in box_lambda(1).sites():
        assert off.value_at(v) == 1.0
    outside = [v for v in box_lambda(2).sites() if not box_lambda(1).contains(v)]
    assert all(off.value_at(v) == f.value_at(v) for v in outside)
    g = replace_at(f, (0, 0), 9.0)
    assert g.value_at((0, 0)) == 9.0
    assert f.value_at((0, 0)) != 9.0


def test_patched_inserts_inner_field():
    outer = sample_field(DisorderSpec.constant(1.0), box_lambda(2), 1.0, ReplicaSeed(1, 0))
    inner = sample_field(DisorderSpec.constant(5.0), box_lambda(1), 1.0, ReplicaSeed(1, 0))
    glued = outer.patched(inner, box_lambda(1))
    assert glued.value_at((0, 0)) == 5.0
    assert glued.value_at((2, 2)) == 1.0


def test_compose_with_reflection():
    f = sample_field(DisorderSpec.uniform(0.0, 1.0), box_lambda(2), 1.0, ReplicaSeed(3, 0))
    g = f.compose(reflect_theta)
    for v in box_lambda(2).sites():
        assert g.value_at(v) == f.value_at(reflect_theta(v))
    assert g.compose(reflect_theta) == f


def test_is_live_tracks_zeros():
    vals = np.ones((2, 2))
    vals[0, 0] = 0.0
    f = ActivityField(centered_box(2, 2), vals, 1.0)
    assert not f.is_live((0, 0))
    assert f.is_live((1, 1))
    assert f.is_live((10, 10))  # outside region defaults live


def test_field_rejects_overflowing_activities():
    box = centered_box(2, 2)
    with pytest.raises(ValueError):
        ActivityField(box, np.full((2, 2), 1e200), 1e200)
    with pytest.raises(ValueError):
        ActivityField(box, np.ones((2, 2)), 1e300).with_value((0, 0), 1e10)
    # zero times a huge scale, and huge values at scale zero, stay finite
    ActivityField(box, np.array([[0.0, 1.0], [1.0, 1.0]]), 1e308)
    ActivityField(box, np.full((2, 2), 1e300), 0.0)


def test_parity_imbalance_counts_deletions_by_parity():
    vals = np.ones((2, 2))
    f = ActivityField(centered_box(2, 2), vals, 1.0)
    assert parity_imbalance(f, centered_box(2, 2)) == 0
    f2 = replace_at(f, (0, 0), 0.0)  # even site deleted
    assert parity_imbalance(f2, centered_box(2, 2)) == 1
    f3 = replace_at(f2, (0, 1), 0.0)  # odd site deleted too
    assert parity_imbalance(f3, centered_box(2, 2)) == 0
    with pytest.raises(ValueError):
        parity_imbalance(replace_at(f, (0, 0), 0.5), centered_box(2, 2))


def test_field_json_round_trip(tmp_path):
    f = sample_field(DisorderSpec.uniform(0.0, 2.0), box_lambda(1), 3.0, ReplicaSeed(11, 2))
    doc = field_to_json(f)
    assert doc["scale"] == 3.0
    assert len(doc["values"]) == f.region.site_count
    assert field_from_json(doc) == f
    p = tmp_path / "field.json"
    save_field(f, p)
    assert field_from_json(json.loads(p.read_text())) == f


def test_field_json_rejects_incomplete_site_lists():
    f = sample_field(DisorderSpec.constant(1.0), box_lambda(1), 1.0, ReplicaSeed(0, 0))
    doc = field_to_json(f)
    doc["values"] = doc["values"][:-1]
    with pytest.raises(ValueError):
        field_from_json(doc)
    doc2 = field_to_json(f)
    doc2["values"][0] = doc2["values"][1]
    with pytest.raises(ValueError):
        field_from_json(doc2)


def test_sampled_values_match_family_statistics():
    # coarse distribution sanity on a large region, fixed seed
    spec = DisorderSpec.gamma(2.0, 1.5)
    f = sample_field(spec, centered_box(40, 40), 1.0, ReplicaSeed(5, 0))
    mean = float(f.values.mean())
    assert math.isclose(mean, spec.mean(), rel_tol=0.1)
