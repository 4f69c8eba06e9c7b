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
    "GateQuasiProb",
    "decompose_gate",
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


def gamma_uniform(theta: float, delta: float) -> tuple[float, float, float]:
    """Interpolation coefficients for offset ``theta`` in a gap ``delta``.

    Valid for ``0 <= theta <= delta`` and ``0 < delta <= pi/2``.  At the
    endpoints the coefficients reduce to ``(1, 0, 0)`` and ``(0, 1, 0)``.
    """
    theta = float(theta)
    delta = float(delta)
    if not (np.isfinite(theta) and np.isfinite(delta)):
        raise ValueError("theta and delta must be finite")
    if not 0.0 < delta <= np.pi / 2 + 1e-12:
        raise ValueError("delta must be in (0, pi/2]")
    if not 0.0 <= theta <= delta * (1.0 + 1e-12):
        raise ValueError("theta must be in [0, delta]")
    rest = 0.5 * (delta - theta)
    g1 = math.cos(0.5 * theta) * math.sin(rest) / math.sin(0.5 * delta)
    g2 = math.sin(theta) / math.sin(delta)
    g3 = -math.sin(0.5 * theta) * math.sin(rest) / math.cos(0.5 * delta)
    return (g1, g2, g3)


def _constraint_matrix(setting_angles) -> np.ndarray:
    a = np.asarray(setting_angles, dtype=np.float64)
    return np.vstack([1.0 + np.cos(a), np.sin(a), 1.0 - np.cos(a)])


def _constraint_rhs(target_angle: float) -> np.ndarray:
    t = float(target_angle)
    return np.array([1.0 + np.cos(t), np.sin(t), 1.0 - np.cos(t)])


def gamma_general(
    target_angle: float, setting_angles: tuple[float, float, float]
) -> tuple[float, float, float]:
    """Solve for interpolation coefficients over three arbitrary settings.

    The constraints say the signed mixture must reproduce the target
    channel's action on the generator's invariant components; they reduce
    to ``sum(g) = 1`` plus matching ``cos`` and ``sin`` of the angles.
    Raises :class:`DegenerateSettingsError` when the system is singular
    (condition number above 1e12), e.g. for coincident settings.
    """
    if not np.all(np.isfinite(setting_angles)) or not np.isfinite(target_angle):
        raise ValueError("angles must be finite")
    mat = _constraint_matrix(setting_angles)
    if np.linalg.cond(mat) > 1e12:
        raise DegenerateSettingsError(
            f"interpolation settings {tuple(setting_angles)} are degenerate"
        )
    sol = np.linalg.solve(mat, _constraint_rhs(target_angle))
    return (float(sol[0]), float(sol[1]), float(sol[2]))


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


@dataclass(frozen=True)
class GateQuasiProb:
    """Decomposition of one gate: coefficients, sampling probabilities and
    the realizable settings they refer to."""

    gammas: tuple[float, float, float]
    probs: tuple[float, float, float]
    norm1: float
    setting_indices: tuple[int, int, int]
    setting_angles: tuple[float, float, float]
    setting_signs: tuple[int, int, int]
    lam: float
    delta_k: float


def decompose_gate(
    grid: NotchGrid, generator: PauliString, target_angle: float
) -> GateQuasiProb:
    """Decompose a rotation at ``target_angle`` over notches of ``grid``.

    The generator only enters validation (it must be non-identity so the
    rotation is periodic in ``2*pi``); the coefficients themselves depend
    on the angles alone.
    """
    if generator.weight == 0:
        raise ValueError("rotation generator must be a non-identity Pauli string")
    pos = locate(grid, target_angle)
    k1 = pos.k
    k2 = (k1 + 1) % grid.size
    k3 = antipolar_notch(grid, k1)
    indices = (k1, k2, k3)
    angles = (grid.angle(k1), grid.angle(k2), grid.angle(k3))
    if pos.theta == 0.0:
        gammas = (1.0, 0.0, 0.0)
    elif grid.is_uniform:
        gammas = gamma_uniform(pos.theta, pos.delta_k)
    else:
        gammas = gamma_general(grid.angle(k1) + pos.theta, angles)
    norm1 = abs(gammas[0]) + abs(gammas[1]) + abs(gammas[2])
    probs = tuple(abs(g) / norm1 for g in gammas)
    signs = tuple(-1 if g < 0.0 else 1 for g in gammas)
    return GateQuasiProb(
        gammas=gammas,
        probs=probs,
        norm1=norm1,
        setting_indices=indices,
        setting_angles=angles,
        setting_signs=signs,
        lam=pos.lam,
        delta_k=pos.delta_k,
    )


@dataclass
class CircuitDecomposition:
    """Per-gate decompositions for a whole circuit plus cached arrays used
    by the vectorized variant sampler.  Treat instances as immutable."""

    generators: tuple[PauliString, ...]
    per_gate: tuple[GateQuasiProb, ...]
    norm1_total: float
    thresholds_low: np.ndarray = field(init=False, repr=False)
    thresholds_high: np.ndarray = field(init=False, repr=False)
    setting_angle_table: np.ndarray = field(init=False, repr=False)
    negative_settings: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        probs = np.array([qp.probs for qp in self.per_gate], dtype=np.float64)
        probs = probs.reshape(len(self.per_gate), 3)
        self.thresholds_low = probs[:, 0].copy()
        self.thresholds_high = probs[:, 0] + probs[:, 1]
        self.setting_angle_table = np.array(
            [qp.setting_angles for qp in self.per_gate], dtype=np.float64
        ).reshape(len(self.per_gate), 3)
        # bit s of gate j's entry is set where its setting s is negative
        self.negative_settings = np.array(
            [sum(1 << s for s in range(3) if qp.setting_signs[s] < 0) for qp in self.per_gate],
            dtype=np.int8,
        )

    @property
    def num_gates(self) -> int:
        return len(self.per_gate)


def decompose_circuit(
    grid: NotchGrid, circuit: list[tuple[PauliString, float]]
) -> CircuitDecomposition:
    """Decompose every gate of ``circuit`` over ``grid``.

    The total weight ``||g||_1`` is the product of per-gate one-norms,
    accumulated in log space so long circuits cannot lose precision; a
    weight that overflows a float raises ``ValueError``.
    """
    generators = []
    per_gate = []
    log_norm = 0.0
    for generator, angle in circuit:
        qp = decompose_gate(grid, generator, angle)
        generators.append(generator)
        per_gate.append(qp)
        log_norm += math.log(qp.norm1)
    return CircuitDecomposition(
        generators=tuple(generators),
        per_gate=tuple(per_gate),
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
    idx = (u >= dec.thresholds_low).astype(np.int8)
    idx += u >= dec.thresholds_high
    negative = (dec.negative_settings >> idx) & 1
    return idx, 1 - 2 * np.bitwise_xor.reduce(negative, axis=1).astype(np.int64)


def worst_case_overhead(nu: int, delta_max: float) -> float:
    """Sampling-variance inflation ``||g||_1**2`` for ``nu`` gates all at
    the worst offset (mid-gap) of a grid with largest gap ``delta_max``;
    ``ValueError`` where it overflows a float."""
    nu = int(nu)
    if nu < 0:
        raise ValueError("gate count must be non-negative")
    delta_max = float(delta_max)
    if not 0.0 < delta_max <= np.pi / 2 + 1e-12:
        raise ValueError("delta_max must be in (0, pi/2]")
    # mid-gap one-norm is 1 + 2 * sec(d/2) * sin(d/4)**2, the max over offsets
    excess = 2.0 * math.sin(0.25 * delta_max) ** 2 / math.cos(0.5 * delta_max)
    return _exp(2.0 * nu * math.log1p(excess), f"worst-case overhead of {nu} gates")


def refined_overhead(dec: CircuitDecomposition) -> tuple[float, float]:
    """Circuit-aware overhead bound from the realized gap fractions.

    Returns ``(lam_tilde, bound)`` where ``lam_tilde`` is four times the
    mean of ``lam * (1 - lam)`` over gates and the bound is
    ``exp(nu * lam_tilde * delta_max**2 / 4)``; never exceeds the
    worst-case overhead at the same gap.
    """
    nu = dec.num_gates
    if nu == 0:
        return 0.0, 1.0
    lams = np.array([qp.lam for qp in dec.per_gate])
    dmax = max(qp.delta_k for qp in dec.per_gate)
    lam_tilde = float(4.0 * np.mean(lams * (1.0 - lams)))
    bound = _exp(0.25 * nu * lam_tilde * dmax * dmax, f"refined overhead of {nu} gates")
    return lam_tilde, bound


def max_gates_for_bits(bits: int) -> int:
    """Largest interpolated-gate count for which the worst-case overhead
    of a ``bits``-bit uniform grid stays below ``exp(pi**2 / 4)``."""
    bits = int(bits)
    if bits < 2:
        raise ValueError("bits must be at least 2")
    return 1 << (2 * (bits - 1))
