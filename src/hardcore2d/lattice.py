"""Geometry of the square lattice: sites, boxes, parity, boundary frames.

Sites are plain ``(x, y)`` integer tuples.  The canonical centered box of
half-side ``j`` has corners ``(-j+1, -j+1)`` and ``(j, j)``; it holds equally
many even and odd sites and is carried onto itself by the vertical reflection
through the line ``x = 1/2``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

Site = tuple[int, int]

MAX_SIDE = 64
_COORD_CAP = 2**31 - 1

_BC_KINDS = ("even", "odd", "empty", "custom")


def is_even(v: Site) -> bool:
    """True when x + y is even."""
    return (v[0] + v[1]) % 2 == 0


def parity(v: Site) -> str:
    return "even" if is_even(v) else "odd"


def neighbours(v: Site) -> tuple[Site, Site, Site, Site]:
    x, y = v
    return ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))


def reflect_theta(v: Site) -> Site:
    """Reflect across the vertical line x = 1/2.  Swaps site parity."""
    return (1 - v[0], v[1])


def column_sites(x: int, y_min: int, bits: int) -> tuple[Site, ...]:
    """The sites (x, y_min + r) of the set bits r of a packed column, bottom up."""
    out = []
    while bits:
        out.append((x, y_min - 1 + (bits & -bits).bit_length()))
        bits &= bits - 1
    return tuple(out)


@dataclass(frozen=True)
class LatticeBox:
    """Axis-aligned box of lattice sites, inclusive on all four corners."""

    x_min: int
    x_max: int
    y_min: int
    y_max: int

    def __post_init__(self) -> None:
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError("box corners are out of order")
        for c in (self.x_min, self.x_max, self.y_min, self.y_max):
            if abs(c) > _COORD_CAP:
                raise ValueError("box coordinate outside 32-bit range")
        if self.width > MAX_SIDE or self.height > MAX_SIDE:
            raise ValueError(f"box sides are capped at {MAX_SIDE}")

    @property
    def width(self) -> int:
        return self.x_max - self.x_min + 1

    @property
    def height(self) -> int:
        return self.y_max - self.y_min + 1

    @property
    def site_count(self) -> int:
        return self.width * self.height

    def contains(self, v: Site) -> bool:
        return self.x_min <= v[0] <= self.x_max and self.y_min <= v[1] <= self.y_max

    def contains_box(self, other: "LatticeBox") -> bool:
        return (
            self.x_min <= other.x_min
            and other.x_max <= self.x_max
            and self.y_min <= other.y_min
            and other.y_max <= self.y_max
        )

    def sites(self) -> Iterator[Site]:
        """All sites in lexicographic order (x major, then y)."""
        for x in range(self.x_min, self.x_max + 1):
            for y in range(self.y_min, self.y_max + 1):
                yield (x, y)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """x (W x 1) and y (1 x H) coordinate arrays; they broadcast to the box."""
        return np.arange(self.x_min, self.x_max + 1)[:, None], np.arange(self.y_min, self.y_max + 1)[None, :]

    def expand(self, k: int = 1) -> "LatticeBox":
        """The box and its k-site ring: the region of a field that dilutes the frame too."""
        if max(self.width, self.height) + 2 * k > MAX_SIDE:
            raise ValueError(f"box sides are capped at {MAX_SIDE - 2 * k}: the field also covers a {k}-site ring "
                             f"around the box, and field sides are capped at {MAX_SIDE}")
        return LatticeBox(self.x_min - k, self.x_max + k, self.y_min - k, self.y_max + k)

    def translated(self, a: Site) -> "LatticeBox":
        return LatticeBox(self.x_min + a[0], self.x_max + a[0], self.y_min + a[1], self.y_max + a[1])


def box_lambda(j: int) -> LatticeBox:
    """Centered box of side 2j: corners (-j+1, -j+1) and (j, j)."""
    if j < 1:
        raise ValueError("half-side j must be >= 1")
    return LatticeBox(-j + 1, j, -j + 1, j)


def centered_box(width: int, height: int) -> LatticeBox:
    """Box of the given side lengths placed so that it contains the origin.

    Even sides reproduce the canonical centered boxes: ``centered_box(2j, 2j)``
    equals ``box_lambda(j)``.
    """
    if width < 1 or height < 1:
        raise ValueError("box sides must be >= 1")
    x_min = -((width - 1) // 2)
    y_min = -((height - 1) // 2)
    return LatticeBox(x_min, x_min + width - 1, y_min, y_min + height - 1)


def external_boundary(box: LatticeBox) -> frozenset[Site]:
    """Sites at L1-distance one from the box (its depth-one frame, no corners)."""
    frame: list[Site] = []
    for y in range(box.y_min, box.y_max + 1):
        frame.append((box.x_min - 1, y))
        frame.append((box.x_max + 1, y))
    for x in range(box.x_min, box.x_max + 1):
        frame.append((x, box.y_min - 1))
        frame.append((x, box.y_max + 1))
    return frozenset(frame)


def phi_j(v: Site, j: int) -> Site:
    """Identity on the centered box of half-side j+1, reflection outside it.
    ``v`` may also be a pair of coordinate arrays that broadcast together."""
    if j < 1:
        raise ValueError("half-side j must be >= 1")
    b, (x, y) = box_lambda(j + 1), v
    inside = (b.x_min <= x) & (x <= b.x_max) & (b.y_min <= y) & (y <= b.y_max)
    return np.where(inside, x, 1 - x)[()], y  # [()] unwraps a scalar's 0-d result


@dataclass(frozen=True)
class BoundaryCondition:
    """Occupation clamp on the depth-one frame around a box.

    kind "even" / "odd" occupies the frame sites of that parity, "empty"
    occupies none, and "custom" occupies the given set (which must itself be
    an independent set).  Frame sites killed by the activity field (value 0)
    are never occupied: callers pass the field's liveness predicate in, or
    (as ``engine.box_activities`` does) look liveness up in the field values.
    """

    kind: str
    custom_occupied: frozenset[Site] = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in _BC_KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind != "custom":
            if self.custom_occupied:
                raise ValueError("occupied sites may only be given for kind 'custom'")
            return
        occ = frozenset(tuple(v) for v in self.custom_occupied)
        object.__setattr__(self, "custom_occupied", occ)
        for u in occ:
            if any(w in occ for w in neighbours(u)):
                raise ValueError("custom boundary set is not independent")

    def frame_occupied(
        self, box: LatticeBox, is_live: Callable[[Site], bool] | None = None
    ) -> frozenset[Site]:
        """Occupied frame sites for this box, filtered by site liveness."""
        if self.kind == "custom":
            cand = external_boundary(box) & self.custom_occupied
        else:
            cand = _parity_frame(box, self.kind)
        if is_live is None:
            return cand
        return frozenset(u for u in cand if is_live(u))


@lru_cache(maxsize=64)
def _parity_frame(box: LatticeBox, kind: str) -> frozenset[Site]:
    """The frame sites of one parity ("even" or "odd"; none for "empty")."""
    return frozenset(u for u in external_boundary(box) if parity(u) == kind)


@lru_cache(maxsize=64)
def frame_cells(box: LatticeBox, frame: frozenset[Site]) -> tuple[np.ndarray, ...]:
    """Coordinate arrays of the given frame sites of ``box``, and of the box
    site each touches (exactly one: its clamp into the box)."""
    fx, fy = np.array(sorted(frame), dtype=np.int64).T
    cells = fx, fy, np.clip(fx - box.x_min, 0, box.width - 1), np.clip(fy - box.y_min, 0, box.height - 1)
    for arr in cells:  # shared by every caller of the cache
        arr.setflags(write=False)
    return cells


EVEN_BC = BoundaryCondition("even")
ODD_BC = BoundaryCondition("odd")
FREE_BC = BoundaryCondition("empty")


def as_boundary_condition(bc: "BoundaryCondition | str") -> BoundaryCondition:
    """Accept a BoundaryCondition or a kind name ('free' aliases 'empty')."""
    if isinstance(bc, BoundaryCondition):
        return bc
    name = bc.lower()
    if name == "free":
        name = "empty"
    return BoundaryCondition(name)
