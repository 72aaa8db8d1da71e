"""Geometry: boxes, parity, frames, reflections."""
import pytest

from hardcore2d.lattice import (
    BoundaryCondition,
    EVEN_BC,
    FREE_BC,
    LatticeBox,
    ODD_BC,
    as_boundary_condition,
    box_lambda,
    centered_box,
    external_boundary,
    is_even,
    neighbours,
    parity,
    phi_j,
    reflect_theta,
)


def test_parity_checkerboard():
    assert is_even((0, 0))
    assert not is_even((1, 0))
    assert parity((3, 4)) == "odd"
    assert parity((-2, 2)) == "even"


def test_neighbours_are_the_four_axis_steps():
    assert set(neighbours((2, -1))) == {(3, -1), (1, -1), (2, 0), (2, -2)}


def test_box_lambda_shape():
    b = box_lambda(2)
    assert (b.x_min, b.x_max, b.y_min, b.y_max) == (-1, 2, -1, 2)
    assert b.width == b.height == 4
    assert b.site_count == 16
    assert box_lambda(1).site_count == 4


def test_centered_box_matches_box_lambda_for_even_sides():
    for j in (1, 2, 5):
        assert centered_box(2 * j, 2 * j) == box_lambda(j)


def test_sites_are_lexicographic_x_major():
    b = LatticeBox(0, 1, 0, 1)
    assert list(b.sites()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_expand_and_containment():
    b = box_lambda(1)
    big = b.expand(1)
    assert big.contains_box(b)
    assert big.site_count == 16
    assert not b.contains_box(big)


def test_invalid_boxes_rejected():
    with pytest.raises(ValueError):
        LatticeBox(2, 1, 0, 0)
    with pytest.raises(ValueError):
        centered_box(0, 3)
    with pytest.raises(ValueError):
        centered_box(100, 2)  # side cap


def test_external_boundary_size_and_disjointness():
    for j in (1, 2, 3):
        b = box_lambda(j)
        frame = external_boundary(b)
        assert len(frame) == 8 * j
        assert all(not b.contains(v) for v in frame)
        # every frame site touches the box
        assert all(any(b.contains(w) for w in neighbours(v)) for v in frame)


def test_reflection_swaps_parity_and_preserves_lambda_boxes():
    assert reflect_theta((0, 5)) == (1, 5)
    assert reflect_theta(reflect_theta((4, -2))) == (4, -2)
    for j in (1, 3):
        b = box_lambda(j)
        imgs = {reflect_theta(v) for v in b.sites()}
        assert imgs == set(b.sites())
    assert parity(reflect_theta((2, 2))) != parity((2, 2))


def test_phi_is_identity_inside_enlarged_box():
    j = 2
    inside = box_lambda(j + 1)
    assert phi_j((0, 0), j) == (0, 0)
    assert phi_j((inside.x_max, 0), j) == (inside.x_max, 0)
    outside = (inside.x_max + 1, 0)
    assert phi_j(outside, j) == reflect_theta(outside)


def test_frame_occupation_parity():
    b = box_lambda(1)
    ev = EVEN_BC.frame_occupied(b)
    od = ODD_BC.frame_occupied(b)
    assert ev and od and not (ev & od)
    assert all(is_even(v) for v in ev)
    assert all(not is_even(v) for v in od)
    assert FREE_BC.frame_occupied(b) == frozenset()


def test_frame_occupation_respects_liveness():
    b = box_lambda(1)
    dead = next(iter(EVEN_BC.frame_occupied(b)))
    alive = EVEN_BC.frame_occupied(b, is_live=lambda v: v != dead)
    assert dead not in alive
    assert alive < EVEN_BC.frame_occupied(b)


def test_custom_bc_must_be_independent():
    with pytest.raises(ValueError):
        BoundaryCondition("custom", frozenset({(0, 2), (1, 2)}))
    ok = BoundaryCondition("custom", frozenset({(0, 2), (2, 0)}))
    assert ok.frame_occupied(box_lambda(1)) == frozenset({(0, 2), (2, 0)})


def test_bc_coercion():
    assert as_boundary_condition("even") == EVEN_BC
    assert as_boundary_condition("free").kind == "empty"
    assert as_boundary_condition(ODD_BC) is ODD_BC  # pass-through keeps identity
    with pytest.raises(ValueError):
        as_boundary_condition("sideways")
