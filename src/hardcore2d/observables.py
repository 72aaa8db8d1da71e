"""Free-energy responses, boundary influence, and disorder statistics.

The central quantity is the free-energy response of a sub-box: the log of
the mean inner-pattern weight under the measure whose field is switched off
(set to 1) inside that sub-box, divided by the activity scale.  Its
even-minus-odd boundary gap, averaged over the field outside the sub-box, is
the order parameter all the desk-scale experiments look at.

Every observable takes one field or a sequence of fields on one box and
returns plain values: a float for one field, an array with one entry per
field for a sequence (``annulus_bound_check`` adds a leading axis for its two
orders).  Each field variant a quantity needs (switched off inside the inner
box, pulled back through phi_j) is built once per call, and each frame solves
the fields and their variants as one stack.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .disorder import ActivityField, DisorderSpec, sample_fields, stacked_values
from .engine import Fields, _as_stack, log_partition, occupation_probabilities, occupation_probability
from .lattice import (
    BoundaryCondition,
    LatticeBox,
    Site,
    as_boundary_condition,
    box_lambda,
    phi_j,
)


def _unstack(values: np.ndarray, single: bool):
    """``values`` for a sequence of fields; for one bare field, the entries of
    its last (field) axis, as a float if no other axis is left."""
    if not single:
        return values
    return values[..., 0].item() if values.ndim == 1 else values[..., 0]


def _bound_scales(scales) -> np.ndarray:
    """The scales as an array; below the smallest normal float, 2 / scale
    overflows and a response divides a log Z difference that underflowed."""
    scales = np.asarray(scales, dtype=float)
    if np.any(scales < sys.float_info.min):
        raise ValueError(f"need an activity scale of at least {sys.float_info.min}")
    return scales


def _responses(L: "int | LatticeBox", inner: LatticeBox, fields: list[ActivityField], bcs) -> np.ndarray:
    """Free-energy responses of the fields, one row per frame in ``bcs``: each
    field is switched off once, and each frame solves fields and copies as
    one stack."""
    outer = L if isinstance(L, LatticeBox) else box_lambda(L)
    scales = _bound_scales([f.scale for f in fields])
    if not outer.contains_box(inner):
        raise ValueError("inner box must lie inside the outer box")
    stack = fields + [f.switched_off(inner) for f in fields]
    n = len(fields)
    logz = [log_partition(outer, stack, bc) for bc in bcs]
    return np.array([(z[:n] - z[n:]) / scales for z in logz])


def free_energy_response(
    L: "int | LatticeBox",
    inner: LatticeBox,
    field: Fields,
    bc: "BoundaryCondition | str",
) -> "float | np.ndarray":
    """(log Z(field) - log Z(field switched off inside)) / scale, per field."""
    fields, single = _as_stack(field)
    return _unstack(_responses(L, inner, fields, [bc])[0], single)


def response_gap(L: "int | LatticeBox", inner: LatticeBox, field: Fields) -> "float | np.ndarray":
    """Even-minus-odd boundary gap of the free-energy response: a float for
    one field, an array for a sequence."""
    fields, single = _as_stack(field)
    even, odd = _responses(L, inner, fields, ["even", "odd"])
    return _unstack(even - odd, single)


def annulus_log_sum(field: Fields, j: int) -> "float | np.ndarray":
    """Sum of log(1 + scale*x_v) over the one-ring annulus around the inner box,
    per field, added up in lexicographic site order."""
    fields, single = _as_stack(field)
    box = box_lambda(j + 1)
    acts = stacked_values(fields, *box.coords()) * np.array([f.scale for f in fields])[:, None, None]
    ring = np.ones(acts.shape[1:], dtype=bool)
    ring[1:-1, 1:-1] = False  # the inner box; the mask keeps lexicographic order
    ring_acts = acts[:, ring]
    logs = np.fromiter(map(math.log1p, ring_acts.ravel().tolist()), float, ring_acts.size)
    # a running sum adds left to right, as a scalar loop would; np.sum pairs terms up
    return _unstack(np.cumsum(logs.reshape(ring_acts.shape), axis=1)[:, -1], single)


def pathwise_gap_bound(field: Fields, j: int) -> "float | np.ndarray":
    """(2 / scale) * annulus log sum: a deterministic cap on |response gap|,
    per field."""
    fields, single = _as_stack(field)
    return _unstack(2.0 / _bound_scales([f.scale for f in fields]) * annulus_log_sum(fields, j), single)


def annulus_bound_check(L: int, j: int, field: Fields) -> "tuple[np.ndarray, float | np.ndarray]":
    """Swapping the boundary parity costs at most the annulus log sum.

    For both orders (tau, tau'): log Z^tau(y) - log Z^tau'(y o phi) <= rhs,
    where phi reflects everything outside the (j+1)-box and y o phi is the
    pulled-back field.  Returns (lhs, rhs): lhs[0] is the even->odd order and
    lhs[1] the odd->even one, each a float for one field and an array over
    the fields for a sequence, as is rhs, the annulus log sum.
    """
    if not 1 <= j < L:
        raise ValueError("need 1 <= j < L")
    fields, single = _as_stack(field)
    outer = box_lambda(L)
    for f in fields:
        if f.region.x_min + f.region.x_max != 1:
            raise ValueError("field region must be symmetric under x -> 1 - x")
        if not f.region.contains_box(outer):
            raise ValueError("field region must contain the outer box")
    n = len(fields)
    stack = fields + [f.compose(lambda v: phi_j(v, j)) for f in fields]
    even, odd = (log_partition(outer, stack, bc) for bc in ("even", "odd"))
    lhs = np.array([even[:n] - odd[n:], odd[:n] - even[n:]])
    return _unstack(lhs, single), annulus_log_sum(field, j)


def boundary_influence(box: LatticeBox, field: Fields, v: Site) -> "float | np.ndarray":
    """Even-minus-odd occupation gap of one site: a float for one field, an
    array over the fields for a sequence."""
    return occupation_probability(box, field, v, "even") - occupation_probability(box, field, v, "odd")


def influence_table(box: LatticeBox, field: Fields) -> "dict[Site, float] | np.ndarray":
    """Even-minus-odd occupation gap for every site of the box: a dict for one
    field, an (n, W, H) array for a sequence of n."""
    even = occupation_probabilities(box, field, "even")
    odd = occupation_probabilities(box, field, "odd")
    if isinstance(even, dict):
        return {v: even[v] - odd[v] for v in box.sites()}
    return even - odd


def derivative_identity_check(
    box: LatticeBox,
    field: ActivityField,
    bc: "BoundaryCondition | str",
    v: Site,
) -> tuple[float, float]:
    """d log Z / d log x_v equals the occupation probability of v.

    Checked by a central difference in log x_v of half-width h = 1e-5;
    returns (finite difference, marginal).
    """
    h = 1e-5
    x = field.value_at(v)
    if x <= 0.0 or not box.contains(v):
        raise ValueError("site must be live and inside the box")
    bc = as_boundary_condition(bc)
    up, dn = log_partition(box, [field.with_value(v, x * math.exp(s * h)) for s in (1, -1)], bc)
    return float((up - dn) / (2.0 * h)), occupation_probability(box, field, v, bc)


def _pareto_log_gain(alpha: float, c: float) -> float:
    """E log(1 + cT), T Pareto with index alpha and minimum 1, in closed form.

    By parts, then s = 1/t: log1p(c) + J(c), J(c) = int_0^1 c s^(alpha-1) /
    (c + s) ds = 2F1(1, alpha; alpha + 1; -1/c) / alpha (Euler's integral).
    scipy's hyp2f1 holds to a few ulps for c >= 1/2; below, it meets Gamma
    poles at integer alpha (inf at alpha = 1).  There J splits at s = 2c into
    (2c)^alpha J(1/2) and the sum over k of (-1)^k c^(k+1) int_2c^1
    s^(alpha-2-k) ds = L c^(k+1) exprel(x), L = -log(2c), x = (k+1-alpha) L,
    ratio <= 1/2; for x > 0 that term is L 2^-(k+1) (2c)^alpha exprel(-x).
    """
    import scipy.special  # here, not at module level: most runs never need scipy

    j = lambda b: scipy.special.hyp2f1(1.0, alpha, alpha + 1.0, -1.0 / b) / alpha  # J(b)
    if c >= 0.5:
        return math.log1p(c) + j(c)
    if c == 0.0:
        raise ValueError("lambda * x_min underflows to 0 for a pareto gap bound")
    k1, log_inv = np.arange(1, 61), -math.log(2.0 * c)  # k + 1; the 61st term is < 2^-60 of the first
    x = (k1 - alpha) * log_inv
    terms = np.where(x <= 0.0, c**k1, 0.5**k1 * (2.0 * c) ** alpha) * scipy.special.exprel(-np.abs(x))
    return math.log1p(c) + (2.0 * c) ** alpha * j(0.5) + log_inv * float(terms[::2].sum() - terms[1::2].sum())


def log_gain_mean(spec: DisorderSpec, scale: float) -> float:
    """E[log(1 + scale*X)] under the disorder family.

    Closed form for the constant, bernoulli and pareto families, otherwise
    adaptive quadrature (relative tolerance 1e-10) against the density written
    out; a quadrature that does not converge raises ValueError, as its value
    is no bound.  The uniform family's elementary antiderivative is not used:
    it cancels to nothing at small scales.
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")
    p, fam = spec.params, spec.family
    if fam == "constant":
        return math.log1p(scale * p[0])
    if fam == "bernoulli":
        return p[0] * math.log1p(scale)
    if fam == "pareto":
        return _pareto_log_gain(p[0], scale * p[1])
    import scipy.integrate  # here, not at module level: most runs never need scipy

    lo, hi = 0.0, np.inf
    if fam == "uniform":
        lo, hi = p
        pdf = lambda x: 1.0 / (hi - lo)
    elif fam == "lognormal":
        m, s = p
        pdf = lambda x: math.exp(-((math.log(x) - m) ** 2) / (2.0 * s * s)) / (x * s * math.sqrt(2.0 * math.pi))
    else:  # gamma
        k, theta = p
        pdf = lambda x: math.exp((k - 1.0) * math.log(x / theta) - x / theta - math.lgamma(k)) / theta
    val, _, _, *msg = scipy.integrate.quad(
        lambda x: math.log1p(scale * x) * pdf(x), lo, hi, epsabs=0.0, epsrel=1e-10, limit=200, full_output=1
    )
    if msg:
        raise ValueError(f"E[log(1 + lambda*X)] under {spec.label()} at lambda={scale!r}: "
                         f"quadrature did not converge ({msg[0].splitlines()[0].strip()})")
    return val


def per_site_gap_bound(scale: float, spec: DisorderSpec) -> float:
    """(2 / scale) * E[log(1 + scale*X)]: expected gap bound per annulus site."""
    _bound_scales(scale)
    return 2.0 / scale * log_gain_mean(spec, scale)


def sampled_response_gaps(
    L: int, j: int, spec: DisorderSpec, scale: float, seed: int, start: int, stop: int
) -> np.ndarray:
    """Response gaps of fully resampled fields (inner sites included), for
    replicas start .. stop - 1 under one master seed, as one stacked solve."""
    # one extra ring so the boundary frame is diluted like everything else
    fields = sample_fields(spec, box_lambda(L).expand(1), scale, seed, start, stop)
    return response_gap(L, box_lambda(j), fields)


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if len(values) < 2:
        return mean, math.nan
    return mean, float(values.std(ddof=1) / math.sqrt(len(values)))


def estimate_response_gap(
    L: int,
    j: int,
    inside_field: ActivityField,
    spec: DisorderSpec,
    replicas: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the conditional even-odd response gap, as
    (mean, standard error).

    Replica r resamples the field outside the inner box with key (seed, r)
    and glues the fixed inside values back in; the estimate is the mean gap.
    """
    if not 1 <= j < L:
        raise ValueError("need 1 <= j < L")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    inner = box_lambda(j)
    outside = sample_fields(spec, box_lambda(L).expand(1), inside_field.scale, seed, 0, replicas)
    return _mean_stderr(response_gap(L, inner, [f.patched(inside_field, inner) for f in outside]))
