"""The library's input checks: each raises its exception type with its exact message."""
import numpy as np
import pytest

from hardcore2d.disorder import ActivityField, DisorderSpec, field_from_json
from hardcore2d.lattice import EVEN_BC, BoundaryCondition, LatticeBox, box_lambda, phi_j
from hardcore2d.observables import (
    annulus_bound_check,
    derivative_identity_check,
    estimate_response_gap,
    free_energy_response,
    log_gain_mean,
)
from hardcore2d.oracle import grid_independent_set_count


def ones(region: LatticeBox) -> ActivityField:
    return ActivityField(region, np.ones((region.width, region.height)), 1.0)


def dead_origin() -> ActivityField:
    values = np.ones((2, 2))
    values[0, 0] = 0.0  # the origin is box_lambda(1)'s lower-left corner
    return ActivityField(box_lambda(1), values, 1.0)


CHECKS = {
    "unknown family": (lambda: DisorderSpec("gaussian", (1.0,)), "unknown disorder family 'gaussian'"),
    "with_value outside the region": (lambda: ones(box_lambda(1)).with_value((5, 5), 2.0),
                                      "site or box lies outside the field region"),
    "field file site outside its region": (
        lambda: field_from_json({"region": [0, 0, 1, 1], "scale": 1, "values": [[0, 0, 1], [5, 5, 1]]}),
        "field value at (5, 5) lies outside the region"),
    "box_lambda(0)": (lambda: box_lambda(0), "half-side j must be >= 1"),
    "phi_j at j = 0": (lambda: phi_j((0, 0), 0), "half-side j must be >= 1"),
    "sites given to a parity frame": (lambda: BoundaryCondition("even", {(0, 0)}),
                                      "occupied sites may only be given for kind 'custom'"),
    "coordinate past 2^31 - 1": (lambda: LatticeBox(0, 2**31, 0, 0), "box coordinate outside 32-bit range"),
    "inner box not inside the outer": (
        lambda: free_energy_response(box_lambda(1), box_lambda(2), [ones(box_lambda(3))], EVEN_BC),
        "inner box must lie inside the outer box"),
    "annulus check at j >= L": (lambda: annulus_bound_check(2, 2, [ones(box_lambda(3))]), "need 1 <= j < L"),
    "annulus check on an asymmetric region": (lambda: annulus_bound_check(2, 1, [ones(LatticeBox(-3, 3, -3, 3))]),
                                              "field region must be symmetric under x -> 1 - x"),
    "annulus check on a region missing the outer box": (lambda: annulus_bound_check(3, 1, [ones(box_lambda(2))]),
                                                        "field region must contain the outer box"),
    "derivative identity at a dead site": (
        lambda: derivative_identity_check(box_lambda(1), dead_origin(), EVEN_BC, (0, 0)),
        "site must be live and inside the box"),
    "log gain at scale 0": (lambda: log_gain_mean(DisorderSpec("bernoulli", (0.5,)), 0.0), "scale must be > 0"),
    "pareto gain underflow": (lambda: log_gain_mean(DisorderSpec("pareto", (2.0, 1e-300)), 1e-300),
                              "lambda * x_min underflows to 0 for a pareto gap bound"),
    "estimate at j >= L": (
        lambda: estimate_response_gap(2, 2, ones(box_lambda(3)), DisorderSpec("constant", (1.0,)), 4, 0),
        "need 1 <= j < L"),
    "empty grid": (lambda: grid_independent_set_count(0, 3), "grid sides must be >= 1"),
}


@pytest.mark.parametrize("name", CHECKS)
def test_an_input_check_raises_its_message(name):
    call, message = CHECKS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
