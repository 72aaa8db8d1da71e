"""Disorder specs, seeded fields, and the field file format."""
import json
import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from hardcore2d import disorder
from hardcore2d.disorder import (
    ActivityField,
    DisorderSpec,
    ReplicaSeed,
    field_from_json,
    field_to_json,
    philox_uniforms,
    sample_field,
    sample_fields,
    save_field,
)
from hardcore2d.lattice import LatticeBox, box_lambda, centered_box, phi_j, reflect_theta

_M64 = (1 << 64) - 1


def _numpy_philox_uniform(key0, key1, c2, c3):
    # first random() of numpy's own Philox generator at this key and counter
    key = np.array([key0 & _M64, key1 & _M64], dtype=np.uint64)
    counter = np.array([0, 0, c2 & _M64, c3 & _M64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter)).random()


def _reference_field(spec, region, seed):
    # one numpy Philox generator per site, drawing as the per-site sampler did
    p = spec.params
    arr = np.empty((region.width, region.height))
    for x, y in region.sites():
        u = _numpy_philox_uniform(seed.master_seed, seed.replica_index, x, y)
        if spec.family == "constant":
            val = p[0]
        elif spec.family == "bernoulli":
            val = 1.0 if u < p[0] else 0.0
        elif spec.family == "uniform":
            val = p[0] + (p[1] - p[0]) * u
        else:
            val = p[1] * (1.0 - u) ** (-1.0 / p[0])
        arr[x - region.x_min, y - region.y_min] = val
    return arr


def _random_field(rng, region, dead=0.2):
    vals = rng.uniform(0.1, 3.0, size=(region.width, region.height))
    vals[rng.random(vals.shape) < dead] = 0.0
    return ActivityField(region, vals, float(rng.uniform(0.5, 4.0)))


def _random_box(rng, side=6, spread=10):
    x0, y0 = (int(c) for c in rng.integers(-spread, spread, size=2))
    w, h = (int(c) for c in rng.integers(1, side + 1, size=2))
    return LatticeBox(x0, x0 + w - 1, y0, y0 + h - 1)


def test_spec_parse_round_trip():
    for text in ("constant:2", "bernoulli:0.7", "uniform:0,2", "lognormal:0,0.5",
                 "gamma:2,1.5", "pareto:3,1", "pareto:2.5,0.5", "bernoulli:0.9999999",
                 "uniform:0,1.23456789"):
        spec = DisorderSpec.parse(text)
        assert spec.label() == text
        assert DisorderSpec.parse(spec.label()) == spec


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
SPECS = st.one_of(
    st.builds(DisorderSpec, st.just("constant"), st.tuples(_NONNEGATIVE)),
    st.builds(DisorderSpec, st.just("bernoulli"), st.tuples(st.floats(0.0, 1.0))),
    st.builds(DisorderSpec, st.just("uniform"), st.tuples(_NONNEGATIVE, _NONNEGATIVE)
              .filter(lambda t: t[0] != t[1]).map(lambda t: tuple(sorted(t)))),
    st.builds(DisorderSpec, st.just("lognormal"), st.tuples(_FINITE, _POSITIVE)),
    st.builds(DisorderSpec, st.just("gamma"), st.tuples(_POSITIVE, _POSITIVE)),
    st.builds(DisorderSpec, st.just("pareto"), st.tuples(_POSITIVE, _POSITIVE)),
)


@settings(derandomize=True, max_examples=300)
@given(SPECS)
def test_label_names_the_law_exactly(spec):
    # the label is what sweeps write in the CSV disorder column
    assert DisorderSpec.parse(spec.label()) == spec


@settings(derandomize=True, max_examples=300)
@given(SPECS, st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8))
def test_draws_are_finite_or_refused_without_a_warning(spec, u):
    # a draw past the largest float raises one ValueError that names the law, for every family
    u.append(1.0 - 2.0**-53)  # the largest uniform philox_uniforms returns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            x = spec.from_uniform(np.array(u))
        except ValueError as exc:
            assert str(exc) == f"a {spec.label()} draw exceeds the largest float"
        else:
            assert x.shape == (len(u),) and np.isfinite(x).all() and (x >= 0).all()


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
    u = DisorderSpec("uniform", (0.5, 2.0))
    vals = u.from_uniform(rng.random(200))
    assert all(0.5 <= v < 2.0 for v in vals)
    b = DisorderSpec("bernoulli", (0.3,))
    assert set(b.from_uniform(rng.random(200)).tolist()) <= {0.0, 1.0}


def test_field_values_depend_only_on_site_and_seed():
    spec = DisorderSpec("uniform", (0.0, 2.0))
    small = sample_field(spec, box_lambda(1), 1.0, ReplicaSeed(42, 0))
    big = sample_field(spec, box_lambda(3), 1.0, ReplicaSeed(42, 0))
    for v in box_lambda(1).sites():
        assert small.value_at(v) == big.value_at(v)
    other_replica = sample_field(spec, box_lambda(1), 1.0, ReplicaSeed(42, 1))
    assert any(small.value_at(v) != other_replica.value_at(v) for v in box_lambda(1).sites())
    again = sample_field(spec, box_lambda(1), 1.0, ReplicaSeed(42, 0))
    assert small == again


def test_value_defaults_to_one_outside_region():
    f = sample_field(DisorderSpec("constant", (3.0,)), box_lambda(1), 2.0, ReplicaSeed(0, 0))
    assert f.value_at((50, 50)) == 1.0
    assert f.value_at((0, 0)) == 3.0
    assert f.scale * f.value_at((0, 0)) == pytest.approx(6.0)


def test_switch_off_and_replace():
    spec = DisorderSpec("uniform", (0.5, 1.5))
    f = sample_field(spec, box_lambda(2), 2.0, ReplicaSeed(7, 0))
    off = f.switched_off(box_lambda(1))
    for v in box_lambda(1).sites():
        assert off.value_at(v) == 1.0
    outside = [v for v in box_lambda(2).sites() if not box_lambda(1).contains(v)]
    assert all(off.value_at(v) == f.value_at(v) for v in outside)
    g = f.with_value((0, 0), 9.0)
    assert g.value_at((0, 0)) == 9.0
    assert f.value_at((0, 0)) != 9.0


def test_patched_inserts_inner_field():
    outer = sample_field(DisorderSpec("constant", (1.0,)), box_lambda(2), 1.0, ReplicaSeed(1, 0))
    inner = sample_field(DisorderSpec("constant", (5.0,)), box_lambda(1), 1.0, ReplicaSeed(1, 0))
    glued = outer.patched(inner, box_lambda(1))
    assert glued.value_at((0, 0)) == 5.0
    assert glued.value_at((2, 2)) == 1.0


def test_compose_with_reflection():
    f = sample_field(DisorderSpec("uniform", (0.0, 1.0)), box_lambda(2), 1.0, ReplicaSeed(3, 0))
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


_BOX = centered_box(2, 2)


def _values(corner: float) -> np.ndarray:
    vals = np.ones((2, 2))
    vals[0, 1] = corner
    return vals


@pytest.mark.parametrize("build, refused", [
    (lambda: ActivityField(_BOX, _values(math.nan), 1.0), True),
    (lambda: ActivityField(_BOX, _values(-0.5), 1.0), True),
    (lambda: ActivityField(_BOX, _values(math.inf), 1.0), True),
    (lambda: ActivityField(_BOX, np.ones((2, 2)), math.nan), True),
    (lambda: ActivityField(_BOX, np.ones((2, 2)), math.inf), True),
    (lambda: ActivityField(_BOX, np.ones((2, 2)), -1.0), True),
    (lambda: ActivityField(_BOX, np.ones((2, 3)), 1.0), True),
    (lambda: ActivityField(_BOX, _values(1e10), 1e300), True),
    (lambda: ActivityField(_BOX, np.ones((2, 2)), 1e300).with_value((0, 0), 1e10), True),
    (lambda: ActivityField(_BOX, np.ones((2, 2)), 1.0).with_value((0, 0), math.nan), True),
    (lambda: ActivityField(_BOX, np.ones((2, 2)), 1e300).patched(
        ActivityField(_BOX, np.full((2, 2), 1e10), 1.0), _BOX), True),
    (lambda: ActivityField(_BOX, _values(-0.0), 1.0), False),
    (lambda: ActivityField(_BOX, np.full((2, 2), 1e300), 0.0), False),
    (lambda: ActivityField(_BOX, np.zeros((2, 2)), 1e308), False),
    (lambda: ActivityField(_BOX, _values(3.0), 2.0).with_value((0, 0), 0.0), False),
    (lambda: ActivityField(_BOX, _values(3.0), 2.0).switched_off(LatticeBox(0, 0, 0, 1)), False),
    (lambda: ActivityField(_BOX, _values(3.0), 2.0).patched(
        ActivityField(_BOX, np.full((2, 2), 5.0), 1.0), LatticeBox(1, 1, 0, 1)), False),
    (lambda: ActivityField(_BOX, _values(3.0), 2.0).compose(reflect_theta), False),
], ids=["nan-value", "negative-value", "inf-value", "nan-scale", "inf-scale", "negative-scale",
        "shape", "overflow", "with_value-overflow", "with_value-nan", "patched-overflow",
        "minus-zero-value", "zero-scale", "zero-values", "with_value", "switched_off", "patched",
        "compose"])
def test_every_field_build_is_checked(build, refused):
    # every field, built directly or by a surgery, is checked and read-only
    if refused:
        with pytest.raises(ValueError):
            build()
        return
    field = build()
    assert field.values.shape == (2, 2) and field.values.dtype == np.float64
    assert not field.values.flags.writeable
    with pytest.raises(ValueError):
        field.values[0, 0] = 7.0
    assert np.all(np.isfinite(field.scale * field.values)) and field.values.min() >= 0


def test_field_json_round_trip(tmp_path):
    f = sample_field(DisorderSpec("uniform", (0.0, 2.0)), box_lambda(1), 3.0, ReplicaSeed(11, 2))
    doc = field_to_json(f)
    assert doc["scale"] == 3.0
    assert len(doc["values"]) == f.region.site_count
    assert field_from_json(doc) == f
    p = tmp_path / "field.json"
    save_field(f, p)
    assert field_from_json(json.loads(p.read_text())) == f


def test_field_json_rejects_incomplete_site_lists():
    f = sample_field(DisorderSpec("constant", (1.0,)), box_lambda(1), 1.0, ReplicaSeed(0, 0))
    doc = field_to_json(f)
    doc["values"] = doc["values"][:-1]
    with pytest.raises(ValueError):
        field_from_json(doc)
    doc2 = field_to_json(f)
    doc2["values"][0] = doc2["values"][1]
    with pytest.raises(ValueError):
        field_from_json(doc2)
    # every site listed, one of them twice: the later value must not win silently
    doc3 = {"region": [0, 0, 0, 1], "scale": 1.0, "values": [[0, 0, 1.0], [0, 1, 2.0], [0, 1, 5.0]]}
    with pytest.raises(ValueError, match=r"repeats site \(0, 1\)"):
        field_from_json(doc3)


def test_sampled_values_match_family_statistics():
    # coarse distribution sanity on a large region, fixed seed
    spec = DisorderSpec("gamma", (2.0, 1.5))
    f = sample_field(spec, centered_box(40, 40), 1.0, ReplicaSeed(5, 0))
    mean = float(f.values.mean())
    assert math.isclose(mean, 2.0 * 1.5, rel_tol=0.1)  # gamma's mean k * theta


def test_philox_uniforms_match_numpy_philox():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        key0 = int(rng.integers(-(2**63), 2**63))  # negative master seeds wrap
        key1 = int(rng.integers(0, 2**63))
        xs = rng.integers(-(2**31), 2**31, size=7)
        ys = rng.integers(-(2**31), 2**31, size=7)
        got = philox_uniforms(key0, key1, xs, ys)
        assert got.tolist() == [_numpy_philox_uniform(key0, key1, int(x), int(y))
                                for x, y in zip(xs, ys)]
    edges = np.array([-(2**31), -(2**31) + 1, -1, 0, 1, 2**31 - 1, 2**31])
    xs, ys = edges[:, None], edges[None, :]  # a 2-D broadcast grid
    got = philox_uniforms(-5, 3, xs, ys)
    assert got.shape == (7, 7)
    for i, x in enumerate(edges.tolist()):
        for k, y in enumerate(edges.tolist()):
            assert got[i, k] == _numpy_philox_uniform(-5, 3, x, y)
    scalar = philox_uniforms(17, 0, -3, 4)
    assert scalar.shape == () and float(scalar) == _numpy_philox_uniform(17, 0, -3, 4)


@pytest.mark.parametrize("text", ["constant:2", "bernoulli:0.7", "uniform:0,2", "pareto:2.5,0.5"])
def test_sample_field_matches_per_site_generators(text):
    spec = DisorderSpec.parse(text)
    for region, seed in [(LatticeBox(-7, -2, -3, 4), ReplicaSeed(11, 3)),
                         (box_lambda(3).expand(1), ReplicaSeed(-(2**40), 0)),
                         (LatticeBox(-(2**31) + 1, -(2**31) + 3, 5, 5), ReplicaSeed(2**63 + 9, 7))]:
        field = sample_field(spec, region, 1.5, seed)
        assert field.values.tolist() == _reference_field(spec, region, seed).tolist()


@pytest.mark.parametrize("text", ["constant:2", "bernoulli:0.7", "pareto:2.5,0.5"])
def test_sample_fields_are_keyed_replicas_and_blocks_tile(text):
    spec, region, master = DisorderSpec.parse(text), LatticeBox(-3, 2, -1, 4), -(2**40) + 5
    block = sample_fields(spec, region, 1.5, master, 3, 8)
    assert len(block) == 5
    for i, field in enumerate(block):
        alone = sample_field(spec, region, 1.5, ReplicaSeed(master, 3 + i))
        assert (field.region, field.scale) == (alone.region, alone.scale)
        assert field.values.tobytes() == alone.values.tobytes()
    tiled = sample_fields(spec, region, 1.5, master, 0, 5) + sample_fields(spec, region, 1.5, master, 5, 9)
    whole = sample_fields(spec, region, 1.5, master, 0, 9)
    assert [f.values.tobytes() for f in tiled] == [f.values.tobytes() for f in whole]
    assert sample_fields(spec, region, 1.5, master, 4, 4) == []


def test_a_constant_law_draws_no_uniforms(monkeypatch):
    def refuse(*args):
        raise AssertionError("a constant law drew uniforms")

    monkeypatch.setattr(disorder, "philox_uniforms", refuse)
    region = LatticeBox(-7, 6, -3, 10)
    field = sample_field(DisorderSpec("constant", (2.5,)), region, 1.5, ReplicaSeed(11, 3))
    assert field == ActivityField(region, np.full((14, 14), 2.5), 1.5)
    block = sample_fields(DisorderSpec("constant", (0.0,)), region, 2.0, 5, 0, 3)
    assert block == [ActivityField(region, np.zeros((14, 14)), 2.0)] * 3


def test_gamma_and_lognormal_are_inverse_cdf_draws():
    region, seed = LatticeBox(-3, 2, -1, 4), ReplicaSeed(8, 1)
    u = np.array([[_numpy_philox_uniform(8, 1, x, y) for y in range(-1, 5)] for x in range(-3, 3)])
    gamma = sample_field(DisorderSpec("gamma", (2.0, 1.5)), region, 1.0, seed)
    assert np.array_equal(gamma.values, 1.5 * scipy.special.gammaincinv(2.0, u))
    lognormal = sample_field(DisorderSpec("lognormal", (0.3, 0.7)), region, 1.0, seed)
    assert np.array_equal(lognormal.values, np.exp(0.3 + 0.7 * scipy.special.ndtri(u)))


def test_compose_matches_its_per_site_definition():
    rng = np.random.default_rng(5)
    for j in (1, 2, 3):
        region = box_lambda(j + 3).expand(1)
        field = _random_field(rng, region)
        maps = [  # (array-aware map, its per-site definition)
            (reflect_theta, lambda v: (1 - v[0], v[1])),
            (lambda v: phi_j(v, j), lambda v: v if box_lambda(j + 1).contains(v) else (1 - v[0], v[1])),
            (lambda v: (v[0] + 3, v[1] - 2), lambda v: (v[0] + 3, v[1] - 2)),  # partly off the region
        ]
        for site_map, definition in maps:
            got = field.compose(site_map)
            for v in region.sites():
                w = definition(v)
                assert got.value_at(v) == (field.value_at(w) if region.contains(w) else 1.0)


def test_patched_matches_its_per_site_definition():
    rng = np.random.default_rng(6)
    for _ in range(30):
        region = _random_box(rng, side=8)
        outer = _random_field(rng, region)
        x0 = int(rng.integers(region.x_min, region.x_max + 1))
        y0 = int(rng.integers(region.y_min, region.y_max + 1))
        inner = LatticeBox(x0, int(rng.integers(x0, region.x_max + 1)),
                           y0, int(rng.integers(y0, region.y_max + 1)))
        # the inner field's region overlaps inner only in part, or not at all
        inner_field = _random_field(rng, _random_box(rng, side=5, spread=4).translated((x0, y0)))
        got = outer.patched(inner_field, inner)
        for v in region.sites():
            want = inner_field.value_at(v) if inner.contains(v) else outer.value_at(v)
            assert got.value_at(v) == want
        assert got.scale == outer.scale


def test_patched_refuses_values_its_scale_overflows():
    # values patched in from a field with a smaller scale can overflow the
    # larger one, and the constructor refuses them
    box = centered_box(2, 2)
    outer = ActivityField(box, np.ones((2, 2)), 1e300)
    with pytest.raises(ValueError, match="finite"):
        outer.patched(ActivityField(box, np.full((2, 2), 1e10), 1.0), box)
    patched = outer.patched(ActivityField(box, np.full((2, 2), 2.0), 1.0), box)
    assert patched.values.tolist() == [[2.0, 2.0], [2.0, 2.0]]
