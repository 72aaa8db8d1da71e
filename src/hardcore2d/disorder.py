"""Random site activities and the field surgeries used by the observables.

A field assigns every site ``v`` of a region the activity ``scale * x_v``
where the ``x_v`` are i.i.d. draws from a one-parameter-or-two family.
``x_v = 0`` is read as deletion of the vertex: the site can never be
occupied, and even/odd boundary frames skip deleted frame sites.

Every site draws from its own counter-based stream keyed by
``(master_seed, replica_index)`` and positioned at the site's absolute
coordinates.  A sampled value therefore depends only on the key, the family
and the site -- not on the region shape, the generation order, or any thread
schedule.  Nested or translated regions sampled under one key agree on the
sites they share, which gives common random numbers across experiment sizes
for free.
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

# family name -> (arity, parameter names)
_FAMILIES = {
    "constant": (1, ("value",)),
    "bernoulli": (1, ("p",)),
    "uniform": (2, ("low", "high")),
    "lognormal": (2, ("mu", "sigma")),
    "gamma": (2, ("shape", "scale")),
    "pareto": (2, ("alpha", "x_min")),
}


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
        arity = _FAMILIES[self.family][0]
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
    def constant(cls, value: float) -> "DisorderSpec":
        return cls("constant", (value,))

    @classmethod
    def bernoulli(cls, p: float) -> "DisorderSpec":
        return cls("bernoulli", (p,))

    @classmethod
    def uniform(cls, low: float, high: float) -> "DisorderSpec":
        return cls("uniform", (low, high))

    @classmethod
    def lognormal(cls, mu: float, sigma: float) -> "DisorderSpec":
        return cls("lognormal", (mu, sigma))

    @classmethod
    def gamma(cls, shape: float, scale: float) -> "DisorderSpec":
        return cls("gamma", (shape, scale))

    @classmethod
    def pareto(cls, alpha: float, x_min: float) -> "DisorderSpec":
        return cls("pareto", (alpha, x_min))

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
        return self.family + ":" + ",".join(format(p, "g") for p in self.params)

    def draw(self, gen: np.random.Generator) -> float:
        """One sample, consuming only this generator's stream."""
        p = self.params
        fam = self.family
        if fam == "constant":
            return p[0]
        if fam == "bernoulli":
            return 1.0 if gen.random() < p[0] else 0.0
        if fam == "uniform":
            return p[0] + (p[1] - p[0]) * gen.random()
        if fam == "lognormal":
            return float(gen.lognormal(p[0], p[1]))
        if fam == "gamma":
            return float(gen.gamma(p[0], p[1]))
        # pareto: inverse CDF on a uniform from (0, 1]
        return p[1] * (1.0 - gen.random()) ** (-1.0 / p[0])

    def mean(self) -> float:
        p = self.params
        fam = self.family
        if fam == "constant":
            return p[0]
        if fam == "bernoulli":
            return p[0]
        if fam == "uniform":
            return 0.5 * (p[0] + p[1])
        if fam == "lognormal":
            return math.exp(p[0] + 0.5 * p[1] ** 2)
        if fam == "gamma":
            return p[0] * p[1]
        return math.inf if p[0] <= 1 else p[0] * p[1] / (p[0] - 1)


@dataclass(frozen=True)
class MomentReport:
    finite_2_plus_eps: bool
    non_constant: bool


def moment_check(spec: DisorderSpec, eps: float = 0.05) -> MomentReport:
    """Gate used by the large-volume statements: a finite (2+eps)-th moment
    and an actually-random field."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    p = spec.params
    fam = spec.family
    finite = True
    if fam == "pareto":
        finite = 2.0 + eps < p[0]
    if fam == "constant":
        non_constant = False
    elif fam == "bernoulli":
        non_constant = 0.0 < p[0] < 1.0
    else:
        non_constant = True
    return MomentReport(finite_2_plus_eps=finite, non_constant=non_constant)


@dataclass(frozen=True)
class ReplicaSeed:
    """Key of one disorder replica: a master seed plus a replica index."""

    master_seed: int
    replica_index: int = 0

    def __post_init__(self) -> None:
        if self.replica_index < 0:
            raise ValueError("replica index must be >= 0")


def _site_generator(seed: ReplicaSeed, site: Site) -> np.random.Generator:
    # key = replica identity, counter = absolute site coordinates
    key = np.array(
        [seed.master_seed & _M64, seed.replica_index & _M64], dtype=np.uint64
    )
    counter = np.array([0, 0, site[0] & _M64, site[1] & _M64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@dataclass(frozen=True, eq=False)
class ActivityField:
    """Activities ``scale * values[v]`` on a rectangular region.

    ``values`` is indexed ``[x - x_min, y - y_min]``.  Outside the region the
    field defaults to the neutral value 1, so frames of boxes sampled without
    a surrounding margin are treated as undeleted.
    """

    region: LatticeBox
    values: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != (self.region.width, self.region.height):
            raise ValueError("values array must match the region shape")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("field values must be finite and >= 0")
        if not (math.isfinite(self.scale) and self.scale >= 0):
            raise ValueError("scale must be finite and >= 0")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(self.scale * arr)):
                raise ValueError("activities scale * value must be finite")
        arr = arr.copy()
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

    def _index(self, v: Site) -> tuple[int, int]:
        return v[0] - self.region.x_min, v[1] - self.region.y_min

    def value_at(self, v: Site) -> float:
        if not self.region.contains(v):
            return 1.0
        ix, iy = self._index(v)
        return float(self.values[ix, iy])

    def is_live(self, v: Site) -> bool:
        return self.value_at(v) > 0.0

    def activity_at(self, v: Site) -> float:
        return self.scale * self.value_at(v)

    def with_value(self, v: Site, x: float) -> "ActivityField":
        """Copy of the field with the value at one site replaced."""
        if not self.region.contains(v):
            raise ValueError("site lies outside the field region")
        if not (math.isfinite(x) and x >= 0):
            raise ValueError("replacement value must be finite and >= 0")
        arr = self.values.copy()
        arr[self._index(v)] = x
        return ActivityField(self.region, arr, self.scale)

    def switched_off(self, inner: LatticeBox) -> "ActivityField":
        """Copy with every value inside ``inner`` set to the neutral 1."""
        if not self.region.contains_box(inner):
            raise ValueError("inner box must lie inside the field region")
        arr = self.values.copy()
        ax, ay = inner.x_min - self.region.x_min, inner.y_min - self.region.y_min
        arr[ax : ax + inner.width, ay : ay + inner.height] = 1.0
        return ActivityField(self.region, arr, self.scale)

    def patched(self, inner_field: "ActivityField", inner: LatticeBox) -> "ActivityField":
        """Copy taking its values inside ``inner`` from ``inner_field``."""
        if not self.region.contains_box(inner):
            raise ValueError("inner box must lie inside the field region")
        arr = self.values.copy()
        for v in inner.sites():
            arr[self._index(v)] = inner_field.value_at(v)
        return ActivityField(self.region, arr, self.scale)

    def compose(self, site_map: Callable[[Site], Site]) -> "ActivityField":
        """Field with values ``x[site_map(v)]``; sites mapped outside the
        region pick up the neutral default 1."""
        arr = np.empty_like(self.values)
        for v in self.region.sites():
            arr[self._index(v)] = self.value_at(site_map(v))
        return ActivityField(self.region, arr, self.scale)

    def with_scale(self, scale: float) -> "ActivityField":
        return ActivityField(self.region, self.values, scale)


def sample_field(
    spec: DisorderSpec, region: LatticeBox, scale: float, seed: ReplicaSeed
) -> ActivityField:
    """Draw the i.i.d. field on a region.  Deterministic in (spec, seed, site)."""
    w, h = region.width, region.height
    if spec.family == "constant":
        return ActivityField(region, np.full((w, h), spec.params[0]), scale)
    arr = np.empty((w, h), dtype=np.float64)
    for ix in range(w):
        for iy in range(h):
            site = (region.x_min + ix, region.y_min + iy)
            arr[ix, iy] = spec.draw(_site_generator(seed, site))
    return ActivityField(region, arr, scale)


def parity_imbalance(field: ActivityField, box: LatticeBox) -> int:
    """(# deleted even sites) - (# deleted odd sites) for a binary field."""
    if not field.region.contains_box(box):
        raise ValueError("box must lie inside the field region")
    n = 0
    for v in box.sites():
        x = field.value_at(v)
        if x not in (0.0, 1.0):
            raise ValueError("parity imbalance needs a 0/1 field")
        if x == 0.0:
            n += 1 if (v[0] + v[1]) % 2 == 0 else -1
    return n


def field_to_json(field: ActivityField) -> dict:
    r = field.region
    return {
        "scale": field.scale,
        "region": [r.x_min, r.y_min, r.x_max, r.y_max],
        "values": [[v[0], v[1], field.value_at(v)] for v in r.sites()],
    }


def field_from_json(source: dict | str | Path) -> ActivityField:
    """Read a field from a mapping or a JSON file path."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        obj = source
    try:
        x_min, y_min, x_max, y_max = (int(c) for c in obj["region"])
        scale = float(obj["scale"])
        triples = [(int(x), int(y), float(val)) for x, y, val in obj["values"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed field description: {exc}") from exc
    region = LatticeBox(x_min, x_max, y_min, y_max)
    arr = np.full((region.width, region.height), np.nan)
    for x, y, val in triples:
        if not region.contains((x, y)):
            raise ValueError(f"field value at {(x, y)} lies outside the region")
        arr[x - region.x_min, y - region.y_min] = val
    if np.any(np.isnan(arr)):
        raise ValueError("field description misses sites of its region")
    return ActivityField(region, arr, scale)


def save_field(field: ActivityField, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(field_to_json(field), fh)
        fh.write("\n")
