"""Free-energy responses, boundary influence, and disorder statistics.

The central quantity is the free-energy response of a sub-box: the log of
the mean inner-pattern weight under the measure whose field is switched off
(set to 1) inside that sub-box, divided by the activity scale.  Its
even-minus-odd boundary gap, averaged over the field outside the sub-box, is
the order parameter all the desk-scale experiments look at.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.integrate
import scipy.stats

from .disorder import ActivityField, DisorderSpec, ReplicaSeed, sample_field
from .engine import log_partition, occupation_probabilities, occupation_probability
from .lattice import (
    BoundaryCondition,
    LatticeBox,
    Site,
    as_boundary_condition,
    box_lambda,
    phi_j,
)

DEFAULT_TOL = 1e-9


def _outer_box(L: "int | LatticeBox") -> LatticeBox:
    return L if isinstance(L, LatticeBox) else box_lambda(L)


@dataclass(frozen=True)
class FreeEnergyResponse:
    value: float
    bc: str
    outer: LatticeBox
    inner: LatticeBox
    scale: float


def free_energy_response(
    L: "int | LatticeBox",
    inner: LatticeBox,
    field: ActivityField,
    bc: "BoundaryCondition | str",
) -> FreeEnergyResponse:
    """(log Z(field) - log Z(field switched off inside)) / scale."""
    outer = _outer_box(L)
    bc = as_boundary_condition(bc)
    if field.scale <= 0:
        raise ValueError("free-energy response needs a positive activity scale")
    if not outer.contains_box(inner):
        raise ValueError("inner box must lie inside the outer box")
    on = log_partition(outer, field, bc)
    off = log_partition(outer, field.switched_off(inner), bc)
    return FreeEnergyResponse((on - off) / field.scale, bc.kind, outer, inner, field.scale)


def response_gap(L: "int | LatticeBox", inner: LatticeBox, field: ActivityField) -> float:
    """Even-minus-odd boundary gap of the free-energy response, one field."""
    even = free_energy_response(L, inner, field, "even").value
    odd = free_energy_response(L, inner, field, "odd").value
    return even - odd


def annulus_log_sum(field: ActivityField, j: int) -> float:
    """Sum of log(1 + scale*x_v) over the one-ring annulus around the inner box."""
    inner, ring = box_lambda(j), box_lambda(j + 1)
    total = 0.0
    for v in ring.sites():
        if not inner.contains(v):
            total += math.log1p(field.scale * field.value_at(v))
    return total


def pathwise_gap_bound(field: ActivityField, j: int) -> float:
    """(2 / scale) * annulus log sum: a deterministic cap on |response gap|."""
    if field.scale <= 0:
        raise ValueError("bound needs a positive activity scale")
    return 2.0 / field.scale * annulus_log_sum(field, j)


def _require_symmetric_region(field: ActivityField) -> None:
    r = field.region
    if r.x_min + r.x_max != 1:
        raise ValueError("field region must be symmetric under x -> 1 - x")


@dataclass(frozen=True)
class AnnulusCheck:
    bc_from: str
    bc_to: str
    lhs: float
    rhs: float
    holds: bool


def annulus_bound_check(
    L: int, j: int, field: ActivityField, tol: float = DEFAULT_TOL
) -> list[AnnulusCheck]:
    """Swapping the boundary parity costs at most the annulus log sum.

    For both orders (tau, tau'): log Z^tau(y) - log Z^tau'(y o phi) <= rhs,
    where phi reflects everything outside the (j+1)-box and y o phi is the
    pulled-back field.
    """
    if not 1 <= j < L:
        raise ValueError("need 1 <= j < L")
    _require_symmetric_region(field)
    outer = box_lambda(L)
    if not field.region.contains_box(outer):
        raise ValueError("field region must contain the outer box")
    pulled = field.compose(lambda v: phi_j(v, j))
    rhs = annulus_log_sum(field, j)
    out = []
    for tau, tau2 in (("even", "odd"), ("odd", "even")):
        lhs = log_partition(outer, field, tau) - log_partition(outer, pulled, tau2)
        out.append(AnnulusCheck(tau, tau2, lhs, rhs, lhs <= rhs + tol))
    return out


@dataclass(frozen=True)
class InfluenceGap:
    site: Site
    p_even: float
    p_odd: float
    box: LatticeBox

    @property
    def gap(self) -> float:
        return self.p_even - self.p_odd


def boundary_influence(box: LatticeBox, field: ActivityField, v: Site) -> InfluenceGap:
    """Even-vs-odd boundary effect on one site's occupation probability."""
    if not box.contains(v):
        raise ValueError("site lies outside the box")
    return InfluenceGap(
        v,
        occupation_probability(box, field, v, "even"),
        occupation_probability(box, field, v, "odd"),
        box,
    )


def influence_table(box: LatticeBox, field: ActivityField) -> dict[Site, float]:
    """Even-minus-odd occupation gap for every site of the box."""
    even = occupation_probabilities(box, field, "even")
    odd = occupation_probabilities(box, field, "odd")
    return {v: even[v] - odd[v] for v in box.sites()}


@dataclass(frozen=True)
class DerivativeCheck:
    site: Site
    finite_difference: float
    marginal: float

    @property
    def discrepancy(self) -> float:
        return abs(self.finite_difference - self.marginal)


def derivative_identity_check(
    box: LatticeBox,
    field: ActivityField,
    bc: "BoundaryCondition | str",
    v: Site,
    h: float = 1e-5,
) -> DerivativeCheck:
    """d log Z / d log x_v equals the occupation probability of v.

    Checked by a central difference in log x_v of half-width h.
    """
    if not 0.0 < h < 0.1:
        raise ValueError("step h must lie in (0, 0.1)")
    x = field.value_at(v)
    if x <= 0.0 or not box.contains(v):
        raise ValueError("site must be live and inside the box")
    bc = as_boundary_condition(bc)
    up = log_partition(box, field.with_value(v, x * math.exp(h)), bc)
    dn = log_partition(box, field.with_value(v, x * math.exp(-h)), bc)
    fd = (up - dn) / (2.0 * h)
    return DerivativeCheck(v, fd, occupation_probability(box, field, v, bc))


def log_gain_mean(spec: DisorderSpec, scale: float) -> float:
    """E[log(1 + scale*X)] under the disorder family.

    Closed form where the integral is elementary, adaptive quadrature
    otherwise (relative tolerance well below 1e-8).
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")
    p = spec.params
    fam = spec.family
    if fam == "constant":
        return math.log1p(scale * p[0])
    if fam == "bernoulli":
        return p[0] * math.log1p(scale)
    if fam == "uniform":
        a, b = 1.0 + scale * p[0], 1.0 + scale * p[1]
        anti = (b * (math.log(b) - 1.0) - a * (math.log(a) - 1.0)) / scale
        return anti / (p[1] - p[0])
    if fam == "lognormal":
        pdf = scipy.stats.lognorm(s=p[1], scale=math.exp(p[0])).pdf
        lo, hi = 0.0, np.inf
    elif fam == "gamma":
        pdf = scipy.stats.gamma(a=p[0], scale=p[1]).pdf
        lo, hi = 0.0, np.inf
    else:  # pareto
        alpha, x_min = p

        def pdf(x: float) -> float:
            return alpha * x_min**alpha * x ** (-alpha - 1.0)

        lo, hi = x_min, np.inf
    val, _ = scipy.integrate.quad(
        lambda x: math.log1p(scale * x) * pdf(x), lo, hi, epsabs=0.0, epsrel=1e-10, limit=200
    )
    return val


def per_site_gap_bound(scale: float, spec: DisorderSpec) -> float:
    """(2 / scale) * E[log(1 + scale*X)]: expected gap bound per annulus site."""
    return 2.0 / scale * log_gain_mean(spec, scale)


def _sampling_region(L: int) -> LatticeBox:
    # one extra ring so the boundary frame is diluted like everything else
    return box_lambda(L).expand(1)


def sampled_response_gap(
    L: int, j: int, spec: DisorderSpec, scale: float, seed: ReplicaSeed
) -> float:
    """Response gap of one fully resampled field (inner sites included)."""
    field = sample_field(spec, _sampling_region(L), scale, seed)
    return response_gap(L, box_lambda(j), field)


def conditional_gap_replica(
    L: int, j: int, inside_field: ActivityField, spec: DisorderSpec, seed: ReplicaSeed
) -> float:
    """Response gap with the inner field held fixed, outside resampled."""
    outer = sample_field(spec, _sampling_region(L), inside_field.scale, seed)
    glued = outer.patched(inside_field, box_lambda(j))
    return response_gap(L, box_lambda(j), glued)


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if len(values) < 2:
        return mean, math.nan
    return mean, float(values.std(ddof=1) / math.sqrt(len(values)))


@dataclass(frozen=True)
class ResponseGapEstimate:
    mean: float
    std_error: float
    replicas: int
    j: int
    L: int
    scale: float
    spec: DisorderSpec
    seed: int


def estimate_response_gap(
    L: int,
    j: int,
    inside_field: ActivityField,
    spec: DisorderSpec,
    replicas: int,
    seed: int,
) -> ResponseGapEstimate:
    """Monte-Carlo estimate of the conditional even-odd response gap.

    Replica r resamples the field outside the inner box with key (seed, r)
    and glues the fixed inside values back in; the estimate is the mean gap.
    """
    if not 1 <= j < L:
        raise ValueError("need 1 <= j < L")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    values = np.array(
        [
            conditional_gap_replica(L, j, inside_field, spec, ReplicaSeed(seed, r))
            for r in range(replicas)
        ]
    )
    mean, err = _mean_stderr(values)
    return ResponseGapEstimate(mean, err, replicas, j, L, inside_field.scale, spec, seed)


@dataclass(frozen=True)
class ScalingRow:
    j: int
    volume: int
    mean: float
    variance: float
    variance_per_site: float
    replicas: int


def fluctuation_scaling(
    j_values: Sequence[int],
    scale: float,
    spec: DisorderSpec,
    replicas: int,
    seed: int,
    l_rule: Callable[[int], int] | None = None,
) -> list[ScalingRow]:
    """Variance of the fully resampled response gap against inner volume.

    The returned ratio variance / (4 j^2) should be flat when the gap
    fluctuates like the square root of the inner volume.
    """
    if replicas < 30:
        raise ValueError("need at least 30 replicas for a variance table")
    l_of = l_rule or (lambda j: 2 * j)
    rows = []
    for j in j_values:
        L = l_of(j)
        if not 1 <= j < L:
            raise ValueError("need 1 <= j < L(j)")
        vals = np.array(
            [
                sampled_response_gap(L, j, spec, scale, ReplicaSeed(seed, r))
                for r in range(replicas)
            ]
        )
        var = float(vals.var(ddof=1))
        volume = box_lambda(j).site_count
        rows.append(ScalingRow(j, volume, float(vals.mean()), var, var / volume, replicas))
    return rows


def l_doubling_shift(
    j: int, inside_field: ActivityField, spec: DisorderSpec, replicas: int, seed: int
) -> tuple[ResponseGapEstimate, ResponseGapEstimate]:
    """Convergence diagnostic: the same estimate at L = 2j and L = 2j + 2.

    Reports the pair; callers compare the shift against the Monte-Carlo
    errors themselves (it is a diagnostic, not an assertion).
    """
    a = estimate_response_gap(2 * j, j, inside_field, spec, replicas, seed)
    b = estimate_response_gap(2 * j + 2, j, inside_field, spec, replicas, seed)
    return a, b
