"""Independent oracles used to cross-check the fast kernels.

The dense-matrix oracles are built from 2x2 Pauli matrices with plain
Kronecker products and matrix products, sharing no code with the package
internals.  Qubit 0 is the least-significant bit, matching the package
convention, so the factor for qubit q sits q kron-positions from the right.
The scalar decomposition oracles place, round and decompose one gate at a
time, and :func:`index_resample` draws batch means one shot index at a time.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def dense_pauli(letters: str) -> np.ndarray:
    """Kronecker-product matrix of a Pauli string."""
    out = np.array([[1.0 + 0.0j]])
    for letter in letters:  # qubit q is the q-th factor from the right
        out = np.kron(PAULI_2X2[letter], out)
    return out


def rotation_matrix(letters: str, channel_angle: float) -> np.ndarray:
    """exp(-1j * channel_angle / 2 * G) via the cos/sin split (G**2 = I)."""
    g = dense_pauli(letters)
    dim = g.shape[0]
    half = 0.5 * channel_angle
    return np.cos(half) * np.eye(dim) - 1.0j * np.sin(half) * g


def circuit_matrix(circuit, num_qubits: int) -> np.ndarray:
    """Product of rotation matrices, first gate applied first."""
    u = np.eye(1 << num_qubits, dtype=complex)
    for generator, angle in circuit:
        u = rotation_matrix(generator.letters, angle) @ u
    return u


def process_matrix(letters: str, channel_angle: float) -> np.ndarray:
    """Matrix of E -> U E U^dag in the flattened matrix-unit basis.

    This is the channel-level object: global phases cancel, so two angles
    give the same process matrix iff they implement the same physical
    rotation.
    """
    u = rotation_matrix(letters, channel_angle)
    dim = u.shape[0]
    cols = []
    for j in range(dim):
        for k in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[j, k] = 1.0
            cols.append((u @ unit @ u.conj().T).reshape(-1))
    return np.stack(cols, axis=1)


def random_pauli_letters(rng: np.random.Generator, num_qubits: int) -> str:
    """Random non-identity Pauli string."""
    while True:
        s = "".join(rng.choice(list("IXYZ"), size=num_qubits))
        if any(c != "I" for c in s):
            return s


def random_circuit(rng: np.random.Generator, num_qubits: int, n_gates: int):
    """Random rotations with angles anywhere on the circle."""
    from pai.statevector import PauliString

    return [
        (
            PauliString(random_pauli_letters(rng, num_qubits)),
            float(rng.uniform(0.0, 2.0 * np.pi)),
        )
        for _ in range(n_gates)
    ]


def pauli_gather_tables(letters: str) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(src, phase)`` with ``(G psi)[c] = phase[c] * psi[src[c]]``."""
    n = len(letters)
    flip = 0
    y_mask = 0
    z_mask = 0
    for q, letter in enumerate(letters):
        bit = 1 << q
        if letter in ("X", "Y"):
            flip |= bit
        if letter == "Y":
            y_mask |= bit
        if letter == "Z":
            z_mask |= bit
    idx = np.arange(1 << n, dtype=np.uint64)
    src = idx ^ np.uint64(flip)
    pops = np.bitwise_count(src & np.uint64(y_mask)) + np.bitwise_count(
        src & np.uint64(z_mask)
    )
    phase = np.where(pops & 1, -1.0, 1.0) * (1j ** letters.count("Y"))
    return src.astype(np.intp), phase.astype(np.complex128)


def gather_rotate_batch(amps: np.ndarray, letters: str, angles) -> np.ndarray:
    """Reference rotation kernel: an index gather of ``G psi`` through the
    tables above, with the package kernel's per-element arithmetic in the
    same order (phase product, cos scaling, -1j*sin scaling, add), so the
    two must agree bit for bit, except at an exact float multiple of pi,
    where the kernel takes cos and sin as exactly 0 or +-1."""
    src, phase = pauli_gather_tables(letters)
    half = 0.5 * np.asarray(angles, dtype=np.float64)
    g = amps[:, src]
    g *= phase
    out = amps * np.cos(half)[:, None]
    g *= (-1j * np.sin(half))[:, None]
    out += g
    return out


def sample_gate(probs, signs, u: float) -> tuple[int, int]:
    """Scalar inverse-CDF draw of one gate's setting from one uniform:
    ``(setting, sign)`` with setting 0 below ``p1``, 1 below ``p1 + p2``
    and 2 otherwise."""
    if u < probs[0]:
        return 0, signs[0]
    if u < probs[0] + probs[1]:
        return 1, signs[1]
    return 2, signs[2]


# ------------------------------------------------- scalar decomposition
#
# The gate-at-a-time notch rules and interpolation coefficients, with
# Python floats and the math module, as the reference for the array pass of
# pai.notch.locate and pai.quasiprob.decompose_circuit.  Grids enter only
# through their public size, uniformity and notch angles.

TWO_PI = 2.0 * math.pi
SNAP_TOL = 1e-12
TIE_TOL = 1e-12


def random_explicit_angles(rng: np.random.Generator, n: int) -> np.ndarray:
    """Sorted angles of an ``n``-notch explicit grid with random gaps in
    (0, pi/2], evenly spaced where a random draw would exceed pi/2."""
    gaps = rng.uniform(0.1, 1.0, size=n)
    gaps *= TWO_PI / gaps.sum()
    if gaps.max() > math.pi / 2:
        gaps = np.full(n, TWO_PI / n)
    start = rng.uniform(0.0, float(gaps[0]) / 2)
    return np.sort((start + np.concatenate([[0.0], np.cumsum(gaps[:-1])])) % TWO_PI)


def _spacing(grid, angles: list, k: int) -> float:
    if grid.is_uniform:
        return TWO_PI / grid.size
    if k == grid.size - 1:
        return angles[0] + TWO_PI - angles[-1]
    return angles[k + 1] - angles[k]


def locate_scalar(grid, target: float) -> tuple[int, float, float, float]:
    """``(k, theta, lam, delta_k)`` of one target: reduce mod 2*pi, bracket,
    then snap an offset within SNAP_TOL of either notch onto it."""
    x = float(target)
    if not math.isfinite(x):
        raise ValueError("target angle must be finite")
    x = x % TWO_PI
    if x >= TWO_PI:  # tiny negative inputs can reduce to exactly 2*pi
        x = 0.0
    size = grid.size
    angles = grid.angles_array().tolist()
    if grid.is_uniform:
        delta = TWO_PI / size
        k = min(int(x / delta), size - 1)
        theta = x - k * delta
    else:
        k = bisect.bisect_right(angles, x) - 1
        if k < 0:
            k = size - 1
            theta = x + TWO_PI - angles[k]
        else:
            theta = x - angles[k]
    delta_k = _spacing(grid, angles, k)
    if theta < SNAP_TOL:
        theta = 0.0
    elif delta_k - theta < SNAP_TOL:
        k = (k + 1) % size
        theta = 0.0
        delta_k = _spacing(grid, angles, k)
    return k, theta, theta / delta_k, delta_k


def nearest_scalar(grid, target: float) -> int:
    """Nearest notch by fractional position; a half rounds up."""
    k, _, lam, _ = locate_scalar(grid, target)
    return (k + 1) % grid.size if lam >= 0.5 - TIE_TOL else k


def antipolar_scalar(grid, k: int) -> int:
    """Notch nearest to ``angle(k) + pi``."""
    if grid.is_uniform:
        return (k + grid.size // 2) % grid.size
    return nearest_scalar(grid, float(grid.angles_array()[k]) + math.pi)


def gamma_uniform_scalar(theta: float, delta: float) -> tuple[float, float, float]:
    """Closed-form coefficients for offset ``theta`` in a uniform gap."""
    rest = 0.5 * (delta - theta)
    g1 = math.cos(0.5 * theta) * math.sin(rest) / math.sin(0.5 * delta)
    g2 = math.sin(theta) / math.sin(delta)
    g3 = -math.sin(0.5 * theta) * math.sin(rest) / math.cos(0.5 * delta)
    return (g1, g2, g3)


def gamma_general_scalar(target: float, settings) -> tuple[float, float, float]:
    """Coefficients from one 3x3 constraint solve in absolute angles."""
    a = np.asarray(settings, dtype=np.float64)
    mat = np.vstack([1.0 + np.cos(a), np.sin(a), 1.0 - np.cos(a)])
    if np.linalg.cond(mat) > 1e12:
        raise ValueError(f"interpolation settings {tuple(settings)} are degenerate")
    t = float(target)
    sol = np.linalg.solve(mat, np.array([1.0 + np.cos(t), np.sin(t), 1.0 - np.cos(t)]))
    return (float(sol[0]), float(sol[1]), float(sol[2]))


def decompose_scalar(grid, target: float) -> dict:
    """One gate's decomposition, gate at a time: row 0 of
    ``pai.quasiprob.CircuitDecomposition``'s per-gate fields (as tuples and
    floats) plus the snapped offset ``theta``."""
    k1, theta, lam, delta_k = locate_scalar(grid, target)
    indices = (k1, (k1 + 1) % grid.size, antipolar_scalar(grid, k1))
    notches = grid.angles_array()
    angles = tuple(float(notches[k]) for k in indices)
    if theta == 0.0:
        gammas = (1.0, 0.0, 0.0)
    elif grid.is_uniform:
        gammas = gamma_uniform_scalar(theta, delta_k)
    else:
        gammas = gamma_general_scalar(angles[0] + theta, angles)
    norm1 = abs(gammas[0]) + abs(gammas[1]) + abs(gammas[2])
    return {
        "gammas": gammas,
        "probs": tuple(abs(g) / norm1 for g in gammas),
        "norm1": norm1,
        "setting_indices": indices,
        "setting_angles": angles,
        "setting_signs": tuple(-1 if g < 0.0 else 1 for g in gammas),
        "lam": lam,
        "delta_k": delta_k,
        "theta": theta,
    }


def index_resample(values: np.ndarray, batch_size: int, n_batches: int, rng) -> np.ndarray:
    """Batch means of the index bootstrap: draw ``batch_size`` pool indices
    per batch, gather their values and average them."""
    idx = rng.integers(0, values.shape[0], size=(n_batches, batch_size))
    return values[idx].mean(axis=1)
