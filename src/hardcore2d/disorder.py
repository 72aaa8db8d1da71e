"""Random site activities and the field surgeries used by the observables.

A field assigns every site ``v`` of a region the activity ``scale * x_v``
where the ``x_v`` are i.i.d. draws from a law ``DisorderSpec(family,
params)`` or ``DisorderSpec.parse("family:p1[,p2]")``.  ``x_v = 0`` is read
as deletion of the vertex: the site can never be occupied, and even/odd
boundary frames skip deleted frame sites.

Every site reads one uniform from a counter-based generator (Philox4x64-10;
Salmon et al., SC'11) keyed by ``(master_seed, replica_index)`` at the
counter ``(0, 0, x, y)`` of the site's absolute coordinates, and maps it
through the family's inverse CDF.  One array call draws the uniforms of a
whole region; each equals the first ``random()`` of numpy's ``Philox``
generator with that key and counter.  A sampled value therefore depends only
on the key, the family and the site -- not on the region shape, the
generation order, or any thread schedule.  Nested or translated regions
sampled under one key agree on the sites they share, which gives common
random numbers across experiment sizes for free.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .lattice import LatticeBox, Site

_M64 = (1 << 64) - 1
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)

# family name -> number of parameters
_FAMILIES = {"constant": 1, "bernoulli": 1, "uniform": 2, "lognormal": 2, "gamma": 2, "pareto": 2}


@dataclass(frozen=True)
class DisorderSpec:
    """A named nonnegative distribution for the i.i.d. site variables."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown disorder family {self.family!r}")
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        arity = _FAMILIES[self.family]
        if len(params) != arity:
            raise ValueError(f"{self.family} takes {arity} parameter(s)")
        if any(not math.isfinite(p) for p in params):
            raise ValueError("disorder parameters must be finite")
        fam = self.family
        if fam == "constant" and params[0] < 0:
            raise ValueError("constant value must be >= 0")
        if fam == "bernoulli" and not 0.0 <= params[0] <= 1.0:
            raise ValueError("bernoulli p must lie in [0, 1]")
        if fam == "uniform" and not 0.0 <= params[0] < params[1]:
            raise ValueError("uniform needs 0 <= low < high")
        if fam == "lognormal" and params[1] <= 0:
            raise ValueError("lognormal sigma must be > 0")
        if fam == "gamma" and (params[0] <= 0 or params[1] <= 0):
            raise ValueError("gamma shape and scale must be > 0")
        if fam == "pareto" and (params[0] <= 0 or params[1] <= 0):
            raise ValueError("pareto alpha and x_min must be > 0")

    @classmethod
    def parse(cls, text: str) -> "DisorderSpec":
        """Parse 'family:p1[,p2]', e.g. 'bernoulli:0.7' or 'uniform:0,2'."""
        family, _, rest = text.partition(":")
        family = family.strip().lower()
        if family not in _FAMILIES:
            raise ValueError(f"unknown disorder family {family!r}")
        try:
            params = tuple(float(p) for p in rest.split(",")) if rest else ()
        except ValueError as exc:
            raise ValueError(f"bad disorder parameters in {text!r}") from exc
        return cls(family, params)

    def label(self) -> str:
        """'family:p1[,p2]' with each parameter's shortest round-trip repr, so
        parse(label()) == self."""
        return self.family + ":" + ",".join(repr(p).removesuffix(".0") for p in self.params)

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """The family's values at uniforms ``u`` from [0, 1), by inverse CDF;
        ValueError, and no warning, if a draw exceeds the largest float."""
        p, fam = self.params, self.family
        u = np.asarray(u, dtype=np.float64)
        if fam in ("lognormal", "gamma"):
            import scipy.special  # here, not at module level: most runs never need scipy
        with np.errstate(over="ignore"):  # an overflow leaves an inf, which the check below refuses
            if fam == "constant":
                x = np.full(u.shape, p[0])
            elif fam == "bernoulli":
                x = (u < p[0]).astype(np.float64)
            elif fam == "uniform":
                x = p[0] + (p[1] - p[0]) * u
            elif fam == "lognormal":
                x = np.exp(p[0] + p[1] * scipy.special.ndtri(u))
            elif fam == "gamma":
                x = p[1] * scipy.special.gammaincinv(p[0], u)
            else:  # pareto on 1 - u from (0, 1]; Python's scalar ** (libm pow) can differ from
                # numpy's vector power in the last bit, and raises past the largest float
                e = -1.0 / p[0]
                try:
                    x = p[1] * np.array([b**e for b in (1.0 - u).ravel().tolist()]).reshape(u.shape)
                except OverflowError:
                    x = np.full(u.shape, np.inf)
        if not np.isfinite(x).all():
            raise ValueError(f"a {self.label()} draw exceeds the largest float")
        return x


@dataclass(frozen=True)
class ReplicaSeed:
    """Key of one disorder replica: a master seed plus a replica index."""

    master_seed: int
    replica_index: int = 0

    def __post_init__(self) -> None:
        if self.replica_index < 0:
            raise ValueError("replica index must be >= 0")


def philox_uniforms(key0: int, key1: int, c2, c3) -> np.ndarray:
    """Uniforms from Philox4x64-10, one per entry of the broadcast ``c2, c3``.

    Each equals the first ``random()`` of ``np.random.Generator(np.random.
    Philox(key=[key0, key1], counter=[0, 0, c2, c3]))``: numpy steps counter
    word 0 to 1 before its first block, and a double is (x0 >> 11) * 2^-53.
    Negative keys and counters wrap to uint64.  Each round multiplies counter
    words 0 and 2 as one (2, n) array, high halves from 32-bit limbs.
    """
    shape = np.broadcast(c2, c3).shape
    ev, od = np.ones((2, *shape), np.uint64), np.zeros((2, *shape), np.uint64)
    ev[1], od[1] = np.asarray(c2), np.asarray(c3)  # counter words (0, 2) and (1, 3)
    ev, od = ev.reshape(2, -1), od.reshape(2, -1)
    key = np.array([[key0 & _M64], [key1 & _M64]], dtype=np.uint64)
    m_lo, m_hi = _PHILOX_M & _LO32, _PHILOX_M >> _S32
    for _ in range(10):
        lo, hi = ev & _LO32, ev >> _S32
        mid = m_lo * hi + (m_lo * lo >> _S32)
        mulhi = m_hi * hi + (mid >> _S32) + (m_hi * lo + (mid & _LO32) >> _S32)
        ev, od = mulhi[::-1] ^ od ^ key, (ev * _PHILOX_M)[::-1]
        key = key + _PHILOX_W
    return ((ev[0] >> np.uint64(11)) * 2.0**-53).reshape(shape)


def region_values(region: LatticeBox, values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``values[..., x - x_min, y - y_min]`` of a region at coordinate arrays
    that broadcast together, and the neutral 1 outside the region; ``values``
    may carry leading axes, such as a stack of fields on one region."""
    ix, iy = xs - region.x_min, ys - region.y_min
    mx, my = ix % region.width, iy % region.height  # equal inside the region
    return np.where((mx == ix) & (my == iy), values[..., mx, my], 1.0)


def stacked_values(fields: list[ActivityField], xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``values_at(xs, ys)`` of each field, stacked on a leading axis; the
    fields on one region share one lookup."""
    regions = [f.region for f in fields]
    out = np.empty((len(fields), *np.broadcast(xs, ys).shape))
    for region in set(regions):
        idx = [k for k, r in enumerate(regions) if r == region]
        out[idx] = region_values(region, np.array([fields[k].values for k in idx]), xs, ys)
    return out


@dataclass(frozen=True, eq=False)
class ActivityField:
    """Activities ``scale * values[v]`` on a rectangular region.

    ``values`` is indexed ``[x - x_min, y - y_min]``.  Outside the region the
    field defaults to the neutral value 1, so frames of boxes sampled without
    a surrounding margin are treated as undeleted.

    Every field, a surgery's too, is built by the constructor: it keeps a
    read-only float64 copy of ``values`` and refuses a wrong shape, a NaN,
    negative or infinite value or scale, and a ``scale * value`` that overflows.
    """

    region: LatticeBox
    values: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64)  # a private copy
        if arr.shape != (self.region.width, self.region.height):
            raise ValueError("values array must match the region shape")
        top = float(arr.max())
        if not (arr.min() >= 0 and math.isfinite(top)):  # NaN fails both
            raise ValueError("field values must be finite and >= 0")
        if not (math.isfinite(self.scale) and self.scale >= 0):
            raise ValueError("scale must be finite and >= 0")
        if not math.isfinite(self.scale * top):  # scale * value rises with the value
            raise ValueError("activities scale * value must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActivityField):
            return NotImplemented
        return (
            self.region == other.region
            and self.scale == other.scale
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None  # type: ignore[assignment]

    def value_at(self, v: Site) -> float:
        if not self.region.contains(v):
            return 1.0
        return float(self.values[v[0] - self.region.x_min, v[1] - self.region.y_min])

    def values_at(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``value_at`` over coordinate arrays that broadcast together."""
        return region_values(self.region, self.values, xs, ys)

    def is_live(self, v: Site) -> bool:
        return self.value_at(v) > 0.0

    def _overwritten(self, box: LatticeBox, values: "float | np.ndarray") -> "ActivityField":
        """Copy with ``values`` (broadcast to the box) written over ``box``."""
        if not self.region.contains_box(box):
            raise ValueError("site or box lies outside the field region")
        arr = self.values.copy()
        ax, ay = box.x_min - self.region.x_min, box.y_min - self.region.y_min
        arr[ax : ax + box.width, ay : ay + box.height] = values
        return ActivityField(self.region, arr, self.scale)

    def with_value(self, v: Site, x: float) -> "ActivityField":
        """Copy of the field with the value at one site, a 1x1 box, replaced."""
        return self._overwritten(LatticeBox(v[0], v[0], v[1], v[1]), x)

    def switched_off(self, inner: LatticeBox) -> "ActivityField":
        """Copy with every value inside ``inner`` set to the neutral 1."""
        return self._overwritten(inner, 1.0)

    def patched(self, inner_field: "ActivityField", inner: LatticeBox) -> "ActivityField":
        """Copy taking its values inside ``inner`` from ``inner_field``."""
        return self._overwritten(inner, inner_field.values_at(*inner.coords()))

    def compose(self, site_map: Callable[[Site], Site]) -> "ActivityField":
        """Field with values ``x[site_map(v)]``; sites mapped outside the
        region pick up the neutral default 1.  ``site_map`` is called once,
        on the region's coordinate arrays ``region.coords()``."""
        return ActivityField(self.region, self.values_at(*site_map(self.region.coords())), self.scale)


def sample_field(
    spec: DisorderSpec, region: LatticeBox, scale: float, seed: ReplicaSeed
) -> ActivityField:
    """Draw the i.i.d. field on a region.  Deterministic in (spec, seed, site)."""
    if spec.family == "constant":  # every site takes the one value: no uniforms to draw
        return ActivityField(region, np.full((region.width, region.height), spec.params[0]), scale)
    u = philox_uniforms(seed.master_seed, seed.replica_index, *region.coords())
    return ActivityField(region, spec.from_uniform(u), scale)


def sample_fields(
    spec: DisorderSpec, region: LatticeBox, scale: float, master: int, start: int, stop: int
) -> list[ActivityField]:
    """The fields of replicas ``start .. stop - 1`` under one master seed:
    entry i is ``sample_field`` keyed by ``ReplicaSeed(master, start + i)``."""
    return [sample_field(spec, region, scale, ReplicaSeed(master, r)) for r in range(start, stop)]


def field_to_json(field: ActivityField) -> dict:
    r = field.region
    return {
        "scale": field.scale,
        "region": [r.x_min, r.y_min, r.x_max, r.y_max],
        "values": [[v[0], v[1], field.value_at(v)] for v in r.sites()],
    }


def _json_as(x, kinds: tuple[type, ...] = (int,)):
    """``x``, uncast, if it is one of ``kinds``; a bool is no number here."""
    if isinstance(x, bool) or not isinstance(x, kinds):
        raise TypeError(f"expected {' or '.join(k.__name__ for k in kinds)}, got {x!r}")
    return x


def field_from_json(source: dict | str | Path) -> ActivityField:
    """Read a field from a mapping or a JSON file path: integer sites, numeric scale and values."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        obj = source
    try:
        x_min, y_min, x_max, y_max = (_json_as(c) for c in obj["region"])
        scale = float(_json_as(obj["scale"], (int, float)))
        triples = [(_json_as(x), _json_as(y), float(_json_as(val, (int, float)))) for x, y, val in obj["values"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed field description: {exc}") from exc
    region = LatticeBox(x_min, x_max, y_min, y_max)
    arr = np.zeros((region.width, region.height))
    seen: set[Site] = set()
    for x, y, val in triples:
        if not region.contains((x, y)):
            raise ValueError(f"field value at {(x, y)} lies outside the region")
        if (x, y) in seen:
            raise ValueError(f"field description repeats site {(x, y)}")
        seen.add((x, y))
        arr[x - region.x_min, y - region.y_min] = val
    if len(seen) < region.site_count:  # counted, as a NaN value is not a missing site
        raise ValueError("field description misses sites of its region")
    return ActivityField(region, arr, scale)


def save_field(field: ActivityField, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(field_to_json(field), fh)
        fh.write("\n")
