"""Independent dense-matrix oracles used to cross-check the fast kernels.

Everything here is built from 2x2 Pauli matrices with plain Kronecker
products and matrix products, sharing no code with the package internals.
Qubit 0 is the least-significant bit, matching the package convention, so
the factor for qubit q sits q kron-positions from the right.
"""

from __future__ import annotations

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
    two must agree bit for bit."""
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
