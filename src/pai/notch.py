"""Discrete grids of allowed rotation angles ("notches") on the circle.

A grid is a cyclic, sorted set of channel angles in ``[0, 2*pi)``.  The
common case is the uniform grid of a B-bit angle register, ``2**B`` notches
spaced ``2*pi / 2**B`` apart; explicit non-uniform grids are supported as
long as every gap is at most ``pi/2``, which keeps the three-point
decomposition used elsewhere well conditioned.

Angle bookkeeping rules, applied consistently everywhere:

* targets are reduced into ``[0, 2*pi)`` first;
* an offset within ``1e-12`` of either enclosing notch snaps onto that
  notch (fraction exactly 0);
* rounding to the nearest notch sends a fraction of exactly 0.5 (within
  ``1e-12``) up to the higher notch.

:func:`locate` applies these rules to a whole array of targets in one
numpy pass (``np.searchsorted`` on explicit grids), and
:func:`nearest_notch`, :func:`round_params_to_grid` and
:func:`antipolar_notch` read from it, so a circuit's angles are placed,
rounded and paired with their antipodes without a per-gate loop.  These
functions and :meth:`NotchGrid.angle` and :meth:`NotchGrid.spacing` take a
scalar or an array and return the same shape; a scalar gives numpy
scalars.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TWO_PI",
    "AnglePosition",
    "NotchGrid",
    "locate",
    "nearest_notch",
    "round_params_to_grid",
    "antipolar_notch",
]

TWO_PI = 2.0 * np.pi
SNAP_TOL = 1e-12
_TIE_TOL = 1e-12
_MAX_SPACING = np.pi / 2 + 1e-12


@dataclass(frozen=True)
class AnglePosition:
    """Where target angles fall on a grid, each field shaped like the
    targets.

    ``k`` indexes the notch at or below a target, ``theta`` is the offset
    above that notch (0 when snapped), ``lam = theta / delta_k`` is the
    fractional position in the enclosing interval and ``delta_k`` the
    interval width.
    """

    k: np.ndarray
    theta: np.ndarray
    lam: np.ndarray
    delta_k: np.ndarray


class NotchGrid:
    """Cyclic grid of allowed channel angles; construct via :meth:`uniform`,
    :meth:`explicit` or :meth:`from_json`."""

    __slots__ = ("_bits", "_delta", "_angles", "_gaps", "_size")

    def __init__(self, *, bits: int | None, angles: np.ndarray | None) -> None:
        self._bits = bits
        self._angles = angles
        if bits is not None:
            self._size = 1 << bits
            self._delta = TWO_PI / self._size
            self._gaps = None
        else:
            assert angles is not None
            self._size = angles.shape[0]
            self._delta = None
            # gap k runs from notch k to notch k + 1; the last one wraps
            self._gaps = np.append(np.diff(angles), angles[0] + TWO_PI - angles[-1])

    @classmethod
    def uniform(cls, bits: int) -> "NotchGrid":
        """Equally spaced grid with ``2**bits`` notches (``bits >= 2``)."""
        bits = int(bits)
        if not 2 <= bits <= 30:
            raise ValueError("bits must be an integer in [2, 30]")
        return cls(bits=bits, angles=None)

    @classmethod
    def explicit(cls, angles) -> "NotchGrid":
        """Grid from a sorted list of angles in ``[0, 2*pi)``.

        Requires at least 4 notches, each a real number (not a bool),
        strictly increasing, with every gap (including the wrap-around gap)
        positive and at most ``pi/2``.
        """
        angles = list(angles)
        if any(isinstance(a, bool) or not isinstance(a, numbers.Real) for a in angles):
            raise ValueError("grid angles must be real numbers")
        arr = np.asarray(angles, dtype=np.float64)
        if arr.shape[0] < 4:
            raise ValueError("explicit grid needs at least 4 angles")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid angles must be finite")
        if arr[0] < 0.0 or arr[-1] >= TWO_PI:
            raise ValueError("grid angles must lie in [0, 2*pi)")
        gaps = np.diff(arr)
        wrap = arr[0] + TWO_PI - arr[-1]
        if np.any(gaps <= 0.0):
            raise ValueError("grid angles must be strictly increasing")
        if np.any(gaps > _MAX_SPACING) or wrap > _MAX_SPACING or wrap <= 0.0:
            raise ValueError("every notch spacing must be in (0, pi/2]")
        return cls(bits=None, angles=arr)

    @classmethod
    def from_json(cls, path: str | Path) -> "NotchGrid":
        """Load an explicit grid from a JSON file: either a bare list of
        angles or an object with an ``"angles"`` key."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            if "angles" not in data:
                raise ValueError("grid file object must contain an 'angles' key")
            data = data["angles"]
        if not isinstance(data, list):
            raise ValueError("grid file must hold a list of angles")
        return cls.explicit(data)

    @property
    def is_uniform(self) -> bool:
        return self._bits is not None

    @property
    def bits(self) -> int | None:
        return self._bits

    @property
    def size(self) -> int:
        return self._size

    def __len__(self) -> int:
        return self._size

    @property
    def delta_max(self) -> float:
        """Largest gap between adjacent notches."""
        if self._bits is not None:
            return self._delta
        return float(self._gaps.max())

    def angle(self, k):
        """Angle of notch ``k`` (indices taken mod the grid size)."""
        k = np.asarray(k, dtype=np.int64) % self._size
        if self._bits is not None:
            return (k * self._delta)[()]
        return self._angles[k][()]

    def spacing(self, k):
        """Gap between notch ``k`` and notch ``k + 1`` (cyclic)."""
        k = np.asarray(k, dtype=np.int64) % self._size
        if self._bits is not None:
            return np.full(k.shape, self._delta)[()]
        return self._gaps[k][()]

    def angles_array(self) -> np.ndarray:
        """All notch angles as an array (materialized for uniform grids)."""
        if self._bits is not None:
            return np.arange(self._size) * self._delta
        return self._angles.copy()


def locate(grid: NotchGrid, target_angle) -> AnglePosition:
    """Reduce each target angle mod ``2*pi`` and express it as notch ``k``
    plus offset ``theta``, snapping offsets within ``SNAP_TOL`` of a notch.

    ``target_angle`` is a scalar or an array; a non-finite entry raises
    ``ValueError`` naming its flat index.
    """
    shape = np.shape(target_angle)
    x = np.asarray(target_angle, dtype=np.float64).ravel()
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"target angle must be finite, got {x[bad[0]]} at index {bad[0]}")
    x = x % TWO_PI
    x[x >= TWO_PI] = 0.0  # tiny negative inputs can reduce to exactly 2*pi
    size = grid.size
    if grid.is_uniform:
        # x >= 0, so the cast truncates like int()
        k = np.minimum((x / grid._delta).astype(np.int64), size - 1)
        theta = x - k * grid._delta
    else:
        angles = grid._angles
        k = np.searchsorted(angles, x, side="right") - 1
        below = k < 0  # under the first notch: in the wrap-around gap
        k[below] = size - 1
        theta = np.where(below, x + TWO_PI - angles[-1], x - angles[k])
    delta_k = grid.spacing(k)
    low = theta < SNAP_TOL
    high = ~low & (delta_k - theta < SNAP_TOL)
    theta[low | high] = 0.0
    k[high] = (k[high] + 1) % size
    delta_k = grid.spacing(k)
    lam = theta / delta_k
    return AnglePosition(*(a.reshape(shape)[()] for a in (k, theta, lam, delta_k)))


def nearest_notch(grid: NotchGrid, target_angle):
    """Index of the notch nearest to each target by fractional position;
    a fraction of exactly one half rounds up."""
    pos = locate(grid, target_angle)
    return np.where(pos.lam >= 0.5 - _TIE_TOL, (pos.k + 1) % grid.size, pos.k)[()]


def round_params_to_grid(grid: NotchGrid, params) -> np.ndarray:
    """Round every channel angle to its nearest notch."""
    return np.asarray(grid.angle(nearest_notch(grid, params)), dtype=np.float64)


def antipolar_notch(grid: NotchGrid, k):
    """Index of the notch nearest to ``angle(k) + pi``.

    Exact for uniform grids, where it is ``k + size/2`` (mod size).
    """
    size = grid.size
    k = np.asarray(k, dtype=np.int64)
    outside = (k < 0) | (k >= size)
    if np.any(outside):
        raise ValueError(f"notch index {k[outside].flat[0]} outside [0, {size})")
    if grid.is_uniform:
        return ((k + size // 2) % size)[()]
    return nearest_notch(grid, grid.angle(k) + np.pi)
