"""Spin-ring benchmark: Hamiltonian, Trotter circuits, variational loop.

The model is a ring of qubits with random on-site Z fields and isotropic
nearest-neighbour exchange,

    H = sum_q omega_q Z_q + J * sum_q (X_q X_{q+1} + Y_q Y_{q+1} + Z_q Z_{q+1}),

indices mod the ring size.  Term order is fixed everywhere: all Z terms by
qubit index, then per bond the XX, YY, ZZ triple; bond ``n-1`` closes the
ring.  A first-order Trotter layer applies one rotation per term with
channel angle ``2 * coefficient * dt`` (the factor 2 cancels the half
angle in the rotation convention), and the variational ansatz reuses the
same gate sequence with free per-gate angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .estimate import nearest_notch_shot_bank, pai_shot_bank
from .notch import NotchGrid, round_params_to_grid
from .rng import stream
from .statevector import (
    Observable,
    PauliString,
    Statevector,
    _apply_pauli,
    expectation,
    run_circuit,
)

__all__ = [
    "SpinRingModel",
    "spin_ring",
    "TrotterSpec",
    "trotter_circuit",
    "neel_prep_circuit",
    "hva_circuit",
    "energy",
    "dense_hamiltonian",
    "ground_energy",
    "EstimatorConfig",
    "gradient",
    "VqeResult",
    "vqe_run",
    "notch_floor_energy",
]

_INIT_KEY = (0, 0)  # aux stream for drawing initial variational parameters


def _sites(letter: str, a: int, b: int, n: int) -> PauliString:
    return PauliString(
        "".join(letter if i in (a, b) else "I" for i in range(n))
    )


@dataclass(frozen=True)
class SpinRingModel:
    """Ring Hamiltonian parameters; ``omega`` holds the on-site fields."""

    num_qubits: int
    coupling: float
    omega: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.num_qubits < 3:
            raise ValueError("a ring needs at least 3 qubits")
        if len(self.omega) != self.num_qubits:
            raise ValueError("need one on-site field per qubit")

    def terms(self) -> tuple[tuple[float, PauliString], ...]:
        """Hamiltonian terms in the fixed global order (4n of them)."""
        return self._terms

    @cached_property
    def _terms(self) -> tuple[tuple[float, PauliString], ...]:
        n = self.num_qubits
        out: list[tuple[float, PauliString]] = []
        for q in range(n):
            out.append((self.omega[q], _sites("Z", q, q, n)))
        for k in range(n):
            a, b = k, (k + 1) % n
            for letter in "XYZ":
                out.append((self.coupling, _sites(letter, a, b, n)))
        return tuple(out)

    def observable(self) -> Observable:
        """The Hamiltonian as an observable, built once per model."""
        return self._observable

    @cached_property
    def _observable(self) -> Observable:
        return Observable(terms=self._terms)

    @property
    def num_terms(self) -> int:
        return 4 * self.num_qubits


def spin_ring(
    num_qubits: int,
    coupling: float = 0.3,
    seed: int = 0,
    omega=None,
) -> SpinRingModel:
    """Build a ring model; on-site fields are uniform in [-1, 1) from the
    model seed unless given explicitly."""
    if omega is None:
        fields = stream(seed).uniform(-1.0, 1.0, int(num_qubits))
        omega = tuple(float(w) for w in fields)
    else:
        omega = tuple(float(w) for w in omega)
    return SpinRingModel(num_qubits=int(num_qubits), coupling=float(coupling), omega=omega)


@dataclass(frozen=True)
class TrotterSpec:
    """First-order Trotterization: ``n_layers`` layers covering
    ``total_time``."""

    total_time: float
    n_layers: int

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ValueError("n_layers must be positive")
        if not np.isfinite(self.total_time):
            raise ValueError("total_time must be finite")

    @property
    def dt(self) -> float:
        return self.total_time / self.n_layers


def trotter_circuit(
    model: SpinRingModel, spec: TrotterSpec
) -> list[tuple[PauliString, float]]:
    """Rotation sequence of the Trotterized evolution, ``4n`` gates per
    layer in the model's term order."""
    dt = spec.dt
    layer = [(pauli, 2.0 * coeff * dt) for coeff, pauli in model.terms()]
    return layer * spec.n_layers


def neel_prep_circuit(num_qubits: int) -> list[tuple[PauliString, float]]:
    """X rotations by pi on odd qubits: maps |0..0> to the alternating
    product state (up to global phase).

    The all-zeros state is an eigenstate of the spin-ring Hamiltonian, so
    time-evolution experiments quench from this state instead.  The pi
    angle sits exactly on a notch for every uniform grid, so the prep
    layer never contributes sampling weight.
    """
    n = int(num_qubits)
    if n < 1:
        raise ValueError("num_qubits must be positive")
    return [(_sites("X", q, q, n), math.pi) for q in range(1, n, 2)]


def hva_circuit(
    model: SpinRingModel, n_layers: int, params
) -> list[tuple[PauliString, float]]:
    """Variational ansatz with the Trotter gate pattern and one free
    channel angle per gate (``4n * n_layers`` parameters)."""
    n_layers = int(n_layers)
    if n_layers < 1:
        raise ValueError("n_layers must be positive")
    params = np.asarray(params, dtype=np.float64)
    expected = model.num_terms * n_layers
    if params.shape != (expected,):
        raise ValueError(f"expected {expected} parameters, got {params.shape}")
    generators = [pauli for _, pauli in model.terms()]
    return [
        (generators[t], float(params[layer * len(generators) + t]))
        for layer in range(n_layers)
        for t in range(len(generators))
    ]


def energy(model: SpinRingModel, state: Statevector) -> float:
    """Exact energy of a state under the ring Hamiltonian."""
    return expectation(state, model.observable())


def _apply_hamiltonian(model: SpinRingModel, rows: np.ndarray) -> np.ndarray:
    """``H psi`` for each row ``psi`` of the ``(V, dim)`` batch ``rows``."""
    out = np.zeros(rows.shape, dtype=np.complex128)
    g = np.empty(rows.shape, dtype=np.complex128)
    for coeff, pauli in model.terms():
        out += np.multiply(coeff, _apply_pauli(rows, pauli.letters, g), out=g)
    return out


def dense_hamiltonian(model: SpinRingModel) -> np.ndarray:
    """Explicit matrix; intended for small systems (dimension <= 2**10)."""
    dim = 1 << model.num_qubits
    if dim > 1 << 10:
        raise ValueError("dense Hamiltonian capped at 10 qubits; use ground_energy")
    # row c of the identity maps to H e_c, column c of H
    return _apply_hamiltonian(model, np.eye(dim, dtype=np.complex128)).T


def ground_energy(model: SpinRingModel) -> float:
    """Lowest eigenvalue by plain Lanczos from the random vector of stream
    ``(0, 0, 0, 0, 0, 0, 0)``; it stops once the lowest Ritz pair's residual
    ``beta_k |s_k|`` is below 1e-10 or the Krylov space spans all ``2**n``."""
    dim = 1 << model.num_qubits
    v = stream(0, 0, 0, 0, 0, 0, 0).standard_normal(dim).astype(np.complex128)
    v /= np.linalg.norm(v)
    prev, beta = np.zeros_like(v), 0.0
    alphas, betas = [], []
    for k in range(1, dim + 1):
        w = _apply_hamiltonian(model, v[None])[0]
        alphas.append(np.vdot(v, w).real)
        w -= alphas[-1] * v
        w -= beta * prev
        vals, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        beta = float(np.linalg.norm(w))
        if beta * abs(vecs[-1, 0]) < 1e-10 or k == dim:
            return float(vals[0])
        betas.append(beta)
        w /= beta
        prev, v = v, w


@dataclass(frozen=True)
class EstimatorConfig:
    """How energies are evaluated inside gradients and the VQE loop.

    ``mode`` is ``"exact"`` (statevector), ``"nearest"`` (angles rounded to
    the grid, then shot-sampled) or ``"pai"`` (sampled interpolation
    variants, shot-sampled).  Sampled modes give every Hamiltonian term an
    equal budget of ``n_variants * shots_per_variant`` shots.
    """

    mode: str
    grid: NotchGrid | None = None
    n_variants: int = 100
    shots_per_variant: int = 100
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "nearest", "pai"):
            raise ValueError(f"unknown estimator mode {self.mode!r}")
        if self.mode != "exact":
            if self.grid is None:
                raise ValueError(f"mode {self.mode!r} requires a notch grid")
            if self.n_variants < 1 or self.shots_per_variant < 1:
                raise ValueError("sampled modes need positive shot counts")


def gradient(
    model: SpinRingModel,
    n_layers: int,
    params,
    config: EstimatorConfig,
    key: tuple[int, ...] = (),
    threads: int = 1,
) -> np.ndarray:
    """Parameter-shift gradient of the estimated energy.

    Every Pauli generator squares to the identity, so the derivative in
    parameter ``j`` is exactly half the difference of energies at shifts
    of +-pi/2 in that channel angle.  Each shifted energy comes from the
    source of ``config.mode``: the :func:`energy` of the
    :func:`run_circuit` state (exact), or the mean of a
    :func:`nearest_notch_shot_bank` of ``n_variants * shots_per_variant``
    shots (nearest) or of a :func:`pai_shot_bank` (pai).  Evaluation
    ``(j, s)`` draws from stream key ``(*key, j, s)`` with ``s`` 0 for the
    plus shift, so distinct keys give independent noise.
    """
    params = np.asarray(params, dtype=np.float64)
    grid, seed, observable = config.grid, config.master_seed, model.observable()
    grad = np.empty(params.shape[0])
    for j in range(params.shape[0]):
        shifted = params.copy()
        energies = []
        for s, shift in enumerate((0.5 * np.pi, -0.5 * np.pi)):
            shifted[j] = params[j] + shift
            circuit = hva_circuit(model, n_layers, shifted)
            if config.mode == "exact":
                energies.append(energy(model, run_circuit(circuit, model.num_qubits)))
                continue
            if config.mode == "nearest":
                shots = config.n_variants * config.shots_per_variant
                bank = nearest_notch_shot_bank(
                    grid, circuit, observable, shots, seed, key=(*key, j, s)
                )
            else:
                bank = pai_shot_bank(
                    grid, circuit, observable, config.n_variants, config.shots_per_variant,
                    seed, key=(*key, j, s), threads=threads,
                )
            energies.append(bank.result().mean)
        grad[j] = 0.5 * (energies[0] - energies[1])
    return grad


@dataclass
class VqeResult:
    """Trace of a gradient-descent run; energies are exact statevector
    evaluations of the iterates, one per iteration plus the final point."""

    energies: np.ndarray
    init_params: np.ndarray
    final_params: np.ndarray
    best_params: np.ndarray
    best_energy: float

    def trace(self) -> list[tuple[int, float]]:
        return [(i, float(e)) for i, e in enumerate(self.energies)]


def vqe_run(
    model: SpinRingModel,
    n_layers: int,
    learning_rate: float,
    n_iters: int,
    config: EstimatorConfig,
    init_params=None,
    init_seed: int = 0,
    threads: int = 1,
) -> VqeResult:
    """Plain gradient descent on the ansatz energy.

    Initial parameters are uniform in [-0.1, 0.1) drawn from ``init_seed``
    unless supplied.  Gradient evaluations at iteration ``i`` use stream
    keys prefixed ``(i, ...)`` so the noise is independent across
    iterations yet fully reproducible.
    """
    if int(n_iters) < 0:
        raise ValueError(f"n_iters must be non-negative, got {n_iters}")
    if not math.isfinite(learning_rate):
        raise ValueError(f"learning_rate must be finite, got {learning_rate}")
    n_params = model.num_terms * int(n_layers)
    if init_params is None:
        params = stream(init_seed, *_INIT_KEY).uniform(-0.1, 0.1, n_params)
    else:
        params = np.asarray(init_params, dtype=np.float64).copy()
        if params.shape != (n_params,):
            raise ValueError(f"expected {n_params} initial parameters")
    init = params.copy()
    last = int(n_iters)
    energies = np.empty(last + 1)
    best_energy = math.inf
    best_params = params.copy()
    # the last iterate is evaluated but takes no gradient step
    for it in range(last + 1):
        state = run_circuit(hva_circuit(model, n_layers, params), model.num_qubits)
        energies[it] = energy(model, state)
        if energies[it] < best_energy:
            best_energy = float(energies[it])
            best_params = params.copy()
        if it == last:
            break
        step = gradient(
            model, n_layers, params, config, key=(it,), threads=threads
        )
        params = params - float(learning_rate) * step
    return VqeResult(
        energies=energies,
        init_params=init,
        final_params=params,
        best_params=best_params,
        best_energy=best_energy,
    )


def notch_floor_energy(
    model: SpinRingModel, n_layers: int, grid: NotchGrid, params
) -> float:
    """Exact energy after rounding the given parameters to the grid: the
    resolution floor a rounding-based optimizer cannot descend below."""
    rounded = round_params_to_grid(grid, params)
    state = run_circuit(hva_circuit(model, n_layers, rounded), model.num_qubits)
    return energy(model, state)
