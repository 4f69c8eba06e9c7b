"""Quasiprobability decomposition of off-grid rotations.

A rotation channel at an arbitrary channel angle ``tau`` is written as a
signed mixture of three channels the hardware can realize: the two notches
enclosing ``tau`` and the notch half a turn from the lower one,

    R(tau) = g1 * R(a1) + g2 * R(a2) + g3 * R(a3),

with ``g1 + g2 + g3 = 1`` and generally ``g3 <= 0``.  Sampling setting
``l`` with probability ``|g_l| / ||g||_1`` and weighting outcomes by
``||g||_1 * sign(g_l)`` makes any linear functional of the output state an
unbiased estimate of its continuous-angle value, at a sampling-variance
cost of ``||g||_1**2`` per gate.

For a uniform gap ``d`` and offset ``t`` above the lower notch the
coefficients have the closed form

    g1 = cos(t/2) * sin((d - t)/2) / sin(d/2)
    g2 = sin(t) / sin(d)
    g3 = -sin(t/2) * sin((d - t)/2) / cos(d/2)

which this module uses on uniform grids; non-uniform grids fall back to
solving the 3x3 constraint system in absolute angles.

:func:`decompose_circuit` decomposes a whole circuit in one array pass:
one :func:`pai.notch.locate` call places every angle, the closed form (or
the stacked 3x3 solves of :func:`gamma_general`) runs over all gates at
once, and the result is a :class:`CircuitDecomposition` of ``(nu, 3)``
arrays.  A single gate is the one-row case: decompose
``[(generator, angle)]`` and read row 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .notch import NotchGrid, antipolar_notch, locate
from .statevector import PauliString

__all__ = [
    "DegenerateSettingsError",
    "gamma_uniform",
    "gamma_general",
    "interpolation_residual",
    "CircuitDecomposition",
    "decompose_circuit",
    "settings_from_uniforms",
    "worst_case_overhead",
    "refined_overhead",
    "max_gates_for_bits",
]


class DegenerateSettingsError(ValueError):
    """Raised when the three interpolation settings cannot resolve the
    target channel (numerically singular constraint system)."""


def _exp(log_value: float, what: str) -> float:
    """``exp(log_value)``; a ``ValueError`` naming ``what`` where that
    overflows a float."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ValueError(f"{what} exp({log_value:.6g}) overflows a float") from None


def gamma_uniform(theta, delta):
    """Interpolation coefficients ``(g1, g2, g3)`` for offsets ``theta`` in
    gaps ``delta``.

    The arguments broadcast against each other, and each coefficient has
    their broadcast shape.  Valid for ``0 <= theta <= delta`` and
    ``0 < delta <= pi/2``.  At the endpoints the coefficients reduce to
    ``(1, 0, 0)`` and ``(0, 1, 0)``.
    """
    theta, delta = np.broadcast_arrays(
        np.asarray(theta, dtype=np.float64), np.asarray(delta, dtype=np.float64)
    )
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(delta))):
        raise ValueError("theta and delta must be finite")
    if not np.all((0.0 < delta) & (delta <= np.pi / 2 + 1e-12)):
        raise ValueError("delta must be in (0, pi/2]")
    if not np.all((0.0 <= theta) & (theta <= delta * (1.0 + 1e-12))):
        raise ValueError("theta must be in [0, delta]")
    rest = 0.5 * (delta - theta)
    g1 = np.cos(0.5 * theta) * np.sin(rest) / np.sin(0.5 * delta)
    g2 = np.sin(theta) / np.sin(delta)
    g3 = -np.sin(0.5 * theta) * np.sin(rest) / np.cos(0.5 * delta)
    return g1[()], g2[()], g3[()]


def _constraint_matrix(setting_angles) -> np.ndarray:
    # row i, column l: constraint i at setting l, one 3x3 block per gate
    a = np.asarray(setting_angles, dtype=np.float64)
    return np.stack([1.0 + np.cos(a), np.sin(a), 1.0 - np.cos(a)], axis=-2)


def _constraint_rhs(target_angle) -> np.ndarray:
    t = np.asarray(target_angle, dtype=np.float64)
    return np.stack([1.0 + np.cos(t), np.sin(t), 1.0 - np.cos(t)], axis=-1)


def gamma_general(target_angle, setting_angles):
    """Solve for interpolation coefficients over three arbitrary settings.

    The constraints say the signed mixture must reproduce the target
    channel's action on the generator's invariant components; they reduce
    to ``sum(g) = 1`` plus matching ``cos`` and ``sin`` of the angles.
    ``target_angle`` has some shape ``S`` and ``setting_angles`` the shape
    ``S + (3,)``; the stacked 3x3 systems are solved at once and each of
    the returned ``(g1, g2, g3)`` has shape ``S``.  Raises
    :class:`DegenerateSettingsError` when a system is singular (condition
    number above 1e12), e.g. for coincident settings.
    """
    if not np.all(np.isfinite(setting_angles)) or not np.all(np.isfinite(target_angle)):
        raise ValueError("angles must be finite")
    mat = _constraint_matrix(setting_angles)
    degenerate = np.flatnonzero(np.linalg.cond(mat) > 1e12)
    if degenerate.size:
        worst = np.reshape(setting_angles, (-1, 3))[degenerate[0]]
        raise DegenerateSettingsError(
            f"interpolation settings {tuple(worst.tolist())} are degenerate"
        )
    sol = np.linalg.solve(mat, _constraint_rhs(target_angle)[..., None])[..., 0]
    return sol[..., 0][()], sol[..., 1][()], sol[..., 2][()]


def interpolation_residual(
    target_angle: float,
    setting_angles: tuple[float, float, float],
    gammas: tuple[float, float, float],
) -> float:
    """Max-norm violation of the interpolation constraints; a diagnostic
    that should sit at rounding-error level for valid decompositions."""
    mat = _constraint_matrix(setting_angles)
    resid = mat @ np.asarray(gammas) - _constraint_rhs(target_angle)
    return float(np.max(np.abs(resid)))


@dataclass(eq=False)
class CircuitDecomposition:
    """Every gate's decomposition as arrays with one row per gate:
    ``(nu, 3)`` ``gammas``, ``probs``, ``setting_indices``,
    ``setting_angles`` and ``setting_signs`` (int8, +-1), the ``(nu,)``
    one-norms ``norm1``, gap fractions ``lam`` and gap widths ``delta_k``,
    and the circuit weight ``norm1_total``.  The sampler's thresholds and
    sign masks are derived from them.  Treat instances as immutable."""

    generators: tuple[PauliString, ...]
    gammas: np.ndarray
    probs: np.ndarray
    norm1: np.ndarray
    setting_indices: np.ndarray
    setting_angles: np.ndarray
    setting_signs: np.ndarray
    lam: np.ndarray
    delta_k: np.ndarray
    norm1_total: float
    thresholds_low: np.ndarray = field(init=False, repr=False)
    thresholds_high: np.ndarray = field(init=False, repr=False)
    negative_settings: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # contiguous, so the sampler's per-chunk comparison runs unstrided
        self.thresholds_low = self.probs[:, 0].copy()
        self.thresholds_high = self.probs[:, 0] + self.probs[:, 1]
        # bit s of gate j's entry is set where its setting s is negative
        self.negative_settings = np.dot(self.setting_signs < 0, [1, 2, 4]).astype(np.int8)

    @property
    def num_gates(self) -> int:
        return len(self.generators)


def _check_gates(generators, angles: np.ndarray) -> None:
    """``ValueError`` naming the first gate with an identity generator or a
    non-finite angle, so a bad gate fails before any decomposition."""
    identity = np.array([g.weight == 0 for g in generators], dtype=bool)
    bad = np.flatnonzero(identity | ~np.isfinite(angles))
    if bad.size:
        j = int(bad[0])
        if identity[j]:
            raise ValueError(f"gate {j}: rotation generator must be a non-identity Pauli string")
        raise ValueError(f"gate {j}: target angle must be finite, got {angles[j]}")


def decompose_circuit(
    grid: NotchGrid, circuit: list[tuple[PauliString, float]]
) -> CircuitDecomposition:
    """Decompose every gate of ``circuit`` over ``grid`` in one array pass.

    Gate ``j`` mixes its enclosing notches ``k`` and ``k + 1`` with the
    notch half a turn from ``k``; a gate on a notch is ``(1, 0, 0)``.  The
    total weight ``||g||_1`` is the product of per-gate one-norms,
    accumulated in log space so long circuits cannot lose precision; a
    weight that overflows a float raises ``ValueError``.
    """
    gates = list(circuit)
    generators = tuple(generator for generator, _ in gates)
    targets = np.array([angle for _, angle in gates], dtype=np.float64)
    _check_gates(generators, targets)
    pos = locate(grid, targets)
    indices = np.stack([pos.k, (pos.k + 1) % grid.size, antipolar_notch(grid, pos.k)], axis=1)
    angles = grid.angle(indices)
    gammas = np.zeros((len(gates), 3))
    gammas[:, 0] = 1.0
    off = pos.theta != 0.0
    if off.any():
        theta, delta_k, settings = pos.theta[off], pos.delta_k[off], angles[off]
        if grid.is_uniform:
            solved = gamma_uniform(theta, delta_k)
        else:
            solved = gamma_general(settings[:, 0] + theta, settings)
        gammas[off] = np.stack(solved, axis=1)
    weights = np.abs(gammas)
    norm1 = weights[:, 0] + weights[:, 1] + weights[:, 2]
    # a left-to-right sum of math.log: np.log differs in the last bit on
    # some inputs and sum() compensates from Python 3.12, and either would
    # move the weight's bits
    log_norm = 0.0
    for value in norm1.tolist():
        log_norm += math.log(value)
    return CircuitDecomposition(
        generators=generators,
        gammas=gammas,
        probs=weights / norm1[:, None],
        norm1=norm1,
        setting_indices=indices,
        setting_angles=angles,
        setting_signs=np.where(gammas < 0.0, -1, 1).astype(np.int8),
        lam=pos.lam,
        delta_k=pos.delta_k,
        norm1_total=_exp(log_norm, "circuit weight"),
    )


def settings_from_uniforms(
    dec: CircuitDecomposition, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized inverse-CDF over a ``(V, num_gates)`` uniform block.

    Returns ``(indices, signs)``: ``indices`` is ``(V, nu)`` int8 with
    values in {0, 1, 2}, which index each gate's ``setting_angles``, and
    ``signs`` is each variant's sign product, -1 for an odd count of
    negative settings.  Gate ``j`` of a row takes setting 0 for a uniform
    below ``p1``, 1 below ``p1 + p2`` and 2 otherwise.
    """
    # in place where it can be, so a chunk's draws sit beside two (V, nu)
    # int8 arrays at most
    idx = (u >= dec.thresholds_low).view(np.int8)
    idx += u >= dec.thresholds_high
    negative = dec.negative_settings >> idx
    negative &= 1
    return idx, 1 - 2 * np.bitwise_xor.reduce(negative, axis=1).astype(np.int64)


def _log_worst_case(nu: int, delta_max: float) -> float:
    """Natural log of :func:`worst_case_overhead`, with its checks."""
    if nu < 0:
        raise ValueError("gate count must be non-negative")
    if not 0.0 < delta_max <= np.pi / 2 + 1e-12:
        raise ValueError("delta_max must be in (0, pi/2]")
    # mid-gap one-norm is 1 + 2 * sec(d/2) * sin(d/4)**2, the max over offsets
    excess = 2.0 * math.sin(0.25 * delta_max) ** 2 / math.cos(0.5 * delta_max)
    return 2.0 * nu * math.log1p(excess)


def worst_case_overhead(nu: int, delta_max: float) -> float:
    """Sampling-variance inflation ``||g||_1**2`` for ``nu`` gates all at
    the worst offset (mid-gap) of a grid with largest gap ``delta_max``;
    ``ValueError`` where it overflows a float."""
    nu = int(nu)
    log_worst = _log_worst_case(nu, float(delta_max))
    return _exp(log_worst, f"worst-case overhead of {nu} gates")


def refined_overhead(dec: CircuitDecomposition) -> tuple[float, float]:
    """Circuit-aware upper bound on the overhead ``dec.norm1_total**2``.

    Returns ``(lam_tilde, bound)``: ``lam_tilde`` is four times the mean of
    ``lam * (1 - lam)`` over gates, and ``bound`` is the smaller of the
    worst-case overhead and ``exp(nu * lam_tilde * d**2 * sec(d/2) / 4)``,
    ``d`` the widest gap a gate falls in.  A gate's one-norm ``1 + 2
    sin(t/2) sin((d - t)/2) / cos(d/2)`` is at most ``1 + lam (1 - lam)
    d**2 / (2 cos(d/2))``, and ``log(1 + x) <= x``; without the secant the
    bound can fall below the exact overhead.  The one-norm needs each
    off-notch gate's third setting at the antipode of its first, which
    explicit grids may lack.  ``ValueError`` where that fails, where a gap
    exceeds ``pi/2`` (no worst case is defined there) or where the bound
    overflows a float; the exponent is taken in log space.
    """
    nu = dec.num_gates
    if nu == 0:
        return 0.0, 1.0
    lams = dec.lam
    dmax = float(dec.delta_k.max())
    off = dec.setting_angles[lams > 0.0]
    if np.any(np.abs(np.abs(off[:, 2] - off[:, 0]) - np.pi) > 1e-12):
        raise ValueError("refined overhead needs each gate's third setting at its antipode")
    lam_tilde = float(4.0 * np.mean(lams * (1.0 - lams)))
    log_sec = 0.25 * nu * lam_tilde * dmax * dmax / math.cos(0.5 * dmax)
    log_bound = min(log_sec, _log_worst_case(nu, dmax))
    return lam_tilde, _exp(log_bound, f"refined overhead of {nu} gates")


def max_gates_for_bits(bits: int) -> int:
    """Largest interpolated-gate count for which the worst-case overhead
    of a ``bits``-bit uniform grid stays below ``exp(pi**2 / 4)``."""
    bits = int(bits)
    if bits < 2:
        raise ValueError("bits must be at least 2")
    return 1 << (2 * (bits - 1))
