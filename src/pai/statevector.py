"""Dense statevector simulation of Pauli-generated rotations.

Conventions
-----------
* Qubit ``q`` corresponds to bit ``q`` of the basis-state index, so qubit 0
  is the least-significant bit and ``PauliString("XZ")`` puts X on qubit 0
  and Z on qubit 1.
* A rotation with generator ``G`` and channel angle ``phi`` applies the
  unitary ``exp(-1j * phi / 2 * G)``.  With the half angle inside the
  exponent the map on density matrices has period ``2*pi`` in ``phi``, and
  the angle ``phi + pi`` applies the original unitary followed by ``G``
  itself (up to global phase).
* States are dense complex128 arrays of length ``2**num_qubits``; the
  number of qubits is capped at ``MAX_QUBITS`` to keep memory bounded.

Any non-identity Pauli string squares to the identity, so the rotation
acts as ``cos(phi/2) * psi - 1j * sin(phi/2) * (G psi)``.  ``G psi`` needs
no index table: with the amplitudes of a row viewed as one length-2 axis
per qubit, the X and Y factors flip their qubit's bit, which is that axis
read backwards (a strided view; no data moves), and the Y and Z factors
contribute a +-1 / +-i phase that depends only on their own axes, so it is
a table of at most ``2**weight`` entries broadcast over the rest.  Adjacent
qubits of the same kind share one longer axis, which keeps the view to a
few dimensions.

Batch kernels take ``(V, dim)`` arrays: row ``v`` is the state of variant
``v``.  Any strides work; the variant engine in :mod:`pai.estimate` passes
the transpose of a C-contiguous ``(dim, V)`` buffer, so every inner loop
runs over ``V`` contiguous variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "PauliString",
    "Observable",
    "Statevector",
    "rotate_batch",
    "run_circuit",
    "pauli_expectation",
    "batch_pauli_expectation",
    "term_expectations",
    "expectation",
    "batch_expectation",
    "fidelity",
]

MAX_QUBITS = 24

_PAULI_CHARS = frozenset("IXYZ")


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, e.g. ``PauliString("IZZX")``.

    ``letters[q]`` is the Pauli acting on qubit ``q``.
    """

    letters: str

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("Pauli string must act on at least one qubit")
        bad = set(self.letters) - _PAULI_CHARS
        if bad:
            raise ValueError(f"invalid Pauli letters: {sorted(bad)}")

    @property
    def num_qubits(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return sum(c != "I" for c in self.letters)

    def __str__(self) -> str:
        return self.letters


@dataclass(frozen=True)
class Observable:
    """Real linear combination of Pauli strings, all on the same qubits."""

    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("observable needs at least one term")
        n = self.terms[0][1].num_qubits
        for coeff, pauli in self.terms:
            if not np.isfinite(coeff):
                raise ValueError("observable coefficients must be finite")
            if pauli.num_qubits != n:
                raise ValueError("observable terms act on differing qubit counts")

    @property
    def num_qubits(self) -> int:
        return self.terms[0][1].num_qubits

    @property
    def one_norm(self) -> float:
        """Sum of absolute coefficients; bounds the operator norm."""
        return float(sum(abs(c) for c, _ in self.terms))


@lru_cache(maxsize=256)
def _view_factors(
    letters: str,
) -> tuple[tuple[int, ...], tuple[slice, ...], np.ndarray]:
    """``(sizes, index, phase)`` of :func:`_apply_pauli` for one Pauli string.

    A row splits into one axis per run of adjacent qubits (highest qubit
    first) whose letters agree on flipping the bit (X, Y) and on carrying a
    phase (Y, Z); ``sizes`` holds the run lengths as powers of two.
    Reversing each of ``k`` adjacent bit axes reverses their merged axis,
    so ``index`` reverses the X/Y runs.  ``phase`` is the read-only +-1 /
    +-i table, full length on the Y/Z runs and 1 elsewhere (at most
    ``2**weight`` entries).  Keyed on the letters, so equal strings built
    apart share one entry; the cache holds at most 256 strings.
    """
    n = len(letters)
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the cap of {MAX_QUBITS}")
    axes = letters[::-1]  # bit n - 1 - k of the index is axis k
    runs = [
        (flip, yz, len(list(run)))
        for (flip, yz), run in groupby((c in "XY", c in "YZ") for c in axes)
    ]
    sizes = tuple(1 << k for _, _, k in runs)
    index = (slice(None), *(slice(None, None, -1 if f else 1) for f, _, _ in runs))
    # (G psi)[c] = (-1)**popcount(src & yz) * 1j**n_y * psi[src] with
    # src = c ^ flip; on a Y axis the source bit is 1 - c's bit
    yz = [c for c in axes if c in "YZ"]
    y_bits = int("".join("1" if c == "Y" else "0" for c in yz) or "0", 2)
    pops = np.bitwise_count(np.arange(1 << len(yz)) ^ y_bits)
    phase = np.where(pops & 1, -1.0, 1.0) * (1j ** letters.count("Y"))
    phase = phase.reshape([1] + [1 << k if yz else 1 for _, yz, k in runs])
    phase.flags.writeable = False
    return sizes, index, phase


def _apply_pauli(
    amps: np.ndarray, pauli: PauliString, out: np.ndarray | None = None
) -> np.ndarray:
    """Write ``G psi`` for each row ``psi`` of the ``(V, dim)`` batch ``amps``
    into ``out`` and return it.

    Each row is viewed with one axis per run of :func:`_view_factors`, the
    X/Y runs reversed, which moves no data, and multiplied by the broadcast
    phase table.  ``out`` must not overlap ``amps``; it is allocated
    C-ordered when not given.
    """
    if out is None:
        out = np.empty(amps.shape, dtype=np.complex128)
    sizes, index, phase = _view_factors(pauli.letters)
    shape = (amps.shape[0], *sizes)
    np.multiply(amps.reshape(shape)[index], phase, out=out.reshape(shape))
    return out


def _pauli_phase_vector(pauli: PauliString) -> np.ndarray:
    """All ``2**n`` phases of ``G`` as one contiguous complex vector; for a
    diagonal ``G`` its real part is the diagonal."""
    sizes, _, phase = _view_factors(pauli.letters)
    vec = np.empty(sizes, dtype=np.complex128)
    vec[...] = phase[0]
    return vec.reshape(-1)


@dataclass(frozen=True)
class Statevector:
    """Normalized pure state on ``num_qubits`` qubits."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        dim = amps.shape[0]
        if amps.ndim != 1 or dim == 0 or dim & (dim - 1):
            raise ValueError("amplitude array length must be a power of two")
        if dim > (1 << MAX_QUBITS):
            raise ValueError(f"state exceeds the {MAX_QUBITS}-qubit cap")
        object.__setattr__(self, "amps", amps)

    @classmethod
    def zero(cls, num_qubits: int) -> "Statevector":
        """The all-zeros computational basis state."""
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}]")
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(amps)

    @property
    def num_qubits(self) -> int:
        return int(self.amps.shape[0]).bit_length() - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _check_compatible(pauli: PauliString, dim: int) -> None:
    if (1 << pauli.num_qubits) != dim:
        raise ValueError(
            f"Pauli string on {pauli.num_qubits} qubits applied to a "
            f"dimension-{dim} state"
        )


def rotate_batch(
    amps: np.ndarray,
    generator: PauliString,
    angles: np.ndarray,
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Apply ``exp(-1j*angles[v]/2 * G)`` to each row of a ``(V, dim)`` batch.

    ``amps`` may have any strides; it runs fastest as the transpose of a
    C-contiguous ``(dim, V)`` buffer, whose inner loops run over the ``V``
    contiguous variants.  ``amps`` is left unmodified.  The result goes to
    ``out`` and ``work`` holds ``G psi``; both are ``(V, dim)`` arrays that
    must not overlap ``amps`` or each other.  When not given, ``out`` is
    allocated in the layout of ``amps`` and ``work`` C-ordered.  Returns
    ``out``.
    """
    _check_compatible(generator, amps.shape[1])
    if out is None:
        out = np.empty_like(amps)
    half = 0.5 * np.asarray(angles, dtype=np.float64)
    work = _apply_pauli(amps, generator, out=work)
    np.multiply(amps, np.cos(half)[:, None], out=out)
    work *= (-1j * np.sin(half))[:, None]
    out += work
    return out


def run_circuit(
    circuit: list[tuple[PauliString, float]],
    num_qubits: int,
    initial: Statevector | None = None,
) -> Statevector:
    """Apply a sequence of ``(generator, channel_angle)`` rotations to
    ``initial`` (default: the all-zeros state)."""
    state = Statevector.zero(num_qubits) if initial is None else initial
    amps = state.amps[None, :]
    for generator, angle in circuit:
        if generator.num_qubits != num_qubits:
            raise ValueError("circuit generator qubit count mismatch")
        if generator.weight == 0:
            raise ValueError("rotation generator must be a non-identity Pauli string")
        angle = float(angle)
        if not math.isfinite(angle):
            raise ValueError("channel angle must be finite")
        amps = rotate_batch(amps, generator, np.array([angle]))
    return Statevector(amps[0])


def batch_pauli_expectation(amps: np.ndarray, pauli: PauliString) -> np.ndarray:
    """``<row|G|row>`` for each row of a ``(V, dim)`` batch; real output."""
    _check_compatible(pauli, amps.shape[1])
    return np.einsum("vi,vi->v", np.conj(amps), _apply_pauli(amps, pauli)).real


def pauli_expectation(state: Statevector, pauli: PauliString) -> float:
    """Expectation value of a single Pauli string; a real number in [-1, 1]
    for normalized states."""
    return float(batch_pauli_expectation(state.amps[None, :], pauli)[0])


def term_expectations(amps: np.ndarray, terms) -> np.ndarray:
    """``(V, T)`` expectation of every ``(coeff, pauli)`` term for every row
    of a ``(V, dim)`` batch; the coefficients are not applied."""
    out = np.empty((amps.shape[0], len(terms)))
    probs = None
    for t, (_, pauli) in enumerate(terms):
        if "X" not in pauli.letters and "Y" not in pauli.letters:
            # diagonal term: expectation is a signed sum of probabilities
            if probs is None:
                probs = amps.real**2 + amps.imag**2
            out[:, t] = probs @ _pauli_phase_vector(pauli).real
        else:
            out[:, t] = batch_pauli_expectation(amps, pauli)
    return out


def batch_expectation(amps: np.ndarray, observable: Observable) -> np.ndarray:
    evs = term_expectations(amps, observable.terms)
    out = np.zeros(amps.shape[0])
    for t, (coeff, _) in enumerate(observable.terms):
        out += coeff * evs[:, t]
    return out


def expectation(state: Statevector, observable: Observable) -> float:
    """Expectation value of a real Pauli-sum observable."""
    return float(batch_expectation(state.amps[None, :], observable)[0])


def fidelity(a: Statevector, b: Statevector) -> float:
    """Squared overlap ``|<a|b>|**2``."""
    if a.amps.shape != b.amps.shape:
        raise ValueError("states have differing dimensions")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)
