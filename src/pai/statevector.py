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
``v``.  Any strides work; the transpose of a C-contiguous ``(dim, V)``
buffer runs fastest, because every inner loop then runs over ``V``
contiguous variants.

Circuits run as fused blocks (:func:`run_batch`), in the manner of qsim's
gate fusion (Isakov et al., arXiv 2111.02396) with qulacs-style small-gate
kernels (Suzuki et al., arXiv 2011.13524).  The plan depends on the
generator letters alone: each maximal run of consecutive gates on one
support of at most two qubits, capped at four gates, is one block; on the
spin ring that is each Neel X, each on-site Z and each bond's XX, YY, ZZ
triple.  A block's unitary is the ordered product of ``cos I - 1j sin P``,
expanded into ``2**m`` cached Pauli products (each a phased bit flip of
the support) times ``V``-long products of the gates' cosines and sines.
Grouped by flip, it is ``sum_f D_f * psi[c ^ f]``: one multiply per flip
through a view of the ``(dim, V)`` chunk whose support axes are reversed
where ``f`` flips them, so only the structurally nonzero entries are
touched (8 of 16 for a bond triple), and a diagonal block is a single
in-place multiply.  A block of one gate (each Neel X and on-site Z), or a
gate on a wider support, runs through :func:`rotate_batch`, the
single-gate kernel: in place for a diagonal generator, else onto the
spare buffer with its input scaled in place, so no third buffer is
needed.
"""

from __future__ import annotations

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
    "run_batch",
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


# cached phase tables hold at most 2**12 entries (64 KiB), so the 256-entry
# cache pins at most 16 MiB; larger tables are rebuilt on every call
_CACHED_PHASE_BITS = 12


def _pauli_view(letters: str) -> tuple[tuple[int, ...], tuple[slice, ...], np.ndarray]:
    """:func:`_view_factors`, from its cache only when the phase table is
    small."""
    if letters.count("Y") + letters.count("Z") > _CACHED_PHASE_BITS:
        return _view_factors.__wrapped__(letters)
    return _view_factors(letters)


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
    ``2**weight`` entries).  Keyed on the letters, so equal strings
    built apart share one entry.
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
    pops = np.bitwise_count(np.arange(1 << len(yz), dtype=np.uint32) ^ y_bits)
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
    sizes, index, phase = _pauli_view(pauli.letters)
    shape = (amps.shape[0], *sizes)
    np.multiply(amps.reshape(shape)[index], phase, out=out.reshape(shape))
    return out


def _pauli_phase_vector(pauli: PauliString) -> np.ndarray:
    """All ``2**n`` phases of ``G`` as one contiguous complex vector; for a
    diagonal ``G`` its real part is the diagonal."""
    sizes, _, phase = _pauli_view(pauli.letters)
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


def _same_view(a: np.ndarray | None, b: np.ndarray) -> bool:
    """Whether ``a`` reads the same memory as ``b`` with the same shape
    and strides."""
    return a is b or (
        a is not None
        and a.shape == b.shape
        and a.strides == b.strides
        and a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
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
    contiguous variants.  The result goes to ``out`` and ``work`` holds
    ``-1j sin * G psi``; both are ``(V, dim)`` arrays that must not overlap
    ``amps`` or each other, and ``amps`` is left unmodified.  When not
    given, ``out`` is allocated in the layout of ``amps`` and ``work``
    C-ordered.  Returns ``out``.

    Two calls overwrite ``amps`` instead, to save a buffer; ``amps`` is
    then passed again, as the same array or a view with its shape and
    strides.  With ``work=amps``, row ``psi`` becomes ``psi[x] *
    phase[x ^ f] * -1j sin``, which is ``-1j sin * G psi`` read through the
    flipped view, so the bits are those of the default call.  With
    ``out=amps`` (and no ``work``) for a diagonal ``G``, one with no X or
    Y, each row is multiplied in place by ``cos - 1j sin * phase``, a
    ``(V, 2**w)`` table for ``G`` of weight ``w``; that agrees with the
    default call to rounding.
    """
    _check_compatible(generator, amps.shape[1])
    half = 0.5 * np.asarray(angles, dtype=np.float64)
    cos = np.cos(half)[:, None]
    sin = (-1j * np.sin(half))[:, None]
    if _same_view(work, amps):
        if out is None:
            out = np.empty_like(amps)
        sizes, index, phase = _pauli_view(generator.letters)
        view = amps.reshape((amps.shape[0], *sizes))
        np.multiply(amps, cos, out=out)
        if phase.size > 1:  # a string of X alone has phase 1
            view *= phase[index]
        amps *= sin
        flipped = out.reshape(view.shape)
        flipped += view[index]
        return out
    if _same_view(out, amps):
        if "X" in generator.letters or "Y" in generator.letters:
            raise ValueError("only a diagonal generator rotates in place")
        sizes, _, phase = _pauli_view(generator.letters)
        # the table's variants are contiguous, as in a transposed chunk
        table = cos.T + phase.reshape(-1, 1) * sin.T
        table = table.T.reshape(-1, *phase.shape[1:])
        view = amps.reshape((amps.shape[0], *sizes))
        np.multiply(view, table, out=view)
        return amps
    if out is None:
        out = np.empty_like(amps)
    work = _apply_pauli(amps, generator, out=work)
    np.multiply(amps, cos, out=out)
    work *= sin
    out += work
    return out


_PAULI_2X2 = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

# a block of m gates expands into 2**m coefficient products per variant
_MAX_BLOCK_GATES = 4
# plans of longer circuits are rebuilt on every call, so the 64-entry plan
# cache holds at most 64 * 2,048 blocks (a few MiB); a kernel's tables
# take at most 4 KiB, so the 256-entry kernel cache stays near 1 MiB
_CACHED_PLAN_GATES = 2048


@lru_cache(maxsize=256)
def _block_kernel(num_qubits: int, support: tuple[int, ...], local: tuple[str, ...]):
    """``(shape, flips, mix, table_shape, diagonal)`` of one fused block.

    ``support`` holds the block's one or two qubits in ascending order and
    ``local`` each gate's letters on them, lowest qubit first.  A chunk
    reshaped to ``shape + (V,)`` has one length-2 axis per support qubit,
    highest first.  Local basis index ``r`` carries the lowest qubit in its
    least significant bit.  The product of ``cos I - 1j sin P`` over the
    block's gates expands into subsets ``S`` of the gates: a Pauli product
    ``P_S`` (later gates on the left) times ``(-1)**|S|`` and the product
    of ``1j sin`` over the gates in ``S`` and ``cos`` over the rest.
    ``P_S`` maps local basis state ``r ^ f_S`` to ``r``.  For the ``i``-th
    flip ``f`` that some ``P_S`` makes (the identity, from the empty
    subset, is the first), ``flips[i]`` is the index that reverses the
    flipped axes, and row ``i * 2**w + r`` of ``mix`` holds
    ``(-1)**|S| * P_S[r, r ^ f]`` in column ``S``, zero where
    ``f_S != f``.  Gate ``i`` of ``m`` is bit
    ``m - 1 - i`` of the column index.  ``mix`` times the ``(2**m, V)``
    products, reshaped to ``table_shape + (V,)``, is one table per flip
    that broadcasts against the reshaped chunk.  ``diagonal`` says the
    identity is the only flip.
    """
    w = len(support)
    k = 1 << w
    mats = []
    for letters in local:
        mat = np.ones((1, 1), dtype=np.complex128)
        for c in letters:  # lowest qubit first, so it ends up rightmost
            mat = np.kron(_PAULI_2X2[c], mat)
        mats.append(mat)
    m = len(mats)
    rows = np.arange(k)
    by_flip: dict[int, np.ndarray] = {}
    for col in range(1 << m):
        prod = np.eye(k, dtype=np.complex128)
        chosen = [i for i in range(m) if col >> (m - 1 - i) & 1]
        for i in chosen:
            prod = mats[i] @ prod
        flip = int(np.flatnonzero(prod[0])[0])  # row 0 reads column 0 ^ f
        entries = by_flip.setdefault(flip, np.zeros((k, 1 << m), dtype=np.complex128))
        entries[:, col] = (-1) ** len(chosen) * prod[rows, rows ^ flip]
    order = sorted(by_flip)
    mix = np.concatenate([by_flip[f] for f in order])
    mix.flags.writeable = False
    shape: tuple[int, ...] = ()
    above = num_qubits
    for q in reversed(support):
        shape += (1 << (above - 1 - q), 2)
        above = q
    shape += (1 << above,)
    bit_axes = [2 * i + 1 for i in range(w)]  # highest support qubit first
    flips = []
    for f in order:
        index = [slice(None)] * (2 * w)
        for i, axis in enumerate(bit_axes):
            if f >> (w - 1 - i) & 1:
                index[axis] = slice(None, None, -1)
        flips.append(tuple(index))
    return shape, tuple(flips), mix, (len(order), *(2, 1) * w), order == [0]


def _plan(letters: tuple[str, ...]) -> tuple:
    """:func:`_block_plan`, from its cache only for circuits of at most
    2,048 gates."""
    if len(letters) > _CACHED_PLAN_GATES:
        return _block_plan.__wrapped__(letters)
    return _block_plan(letters)


@lru_cache(maxsize=64)
def _block_plan(letters: tuple[str, ...]) -> tuple:
    """``(blocks, gates, rows)`` of a gate sequence.

    ``blocks`` holds ``(lo, hi, kernel)`` per block, where gates ``lo`` to
    ``hi - 1``, at least two, share one support of at most two qubits and
    ``kernel`` is their :func:`_block_kernel`, or ``(lo, lo + 1, None)``
    for a gate that runs alone through :func:`rotate_batch`.  ``gates`` and
    ``rows`` are the most gates and table rows of a fused block, which
    size the scratch of :func:`run_batch`.
    """
    n = len(letters[0])
    blocks = []
    max_gates = max_rows = 1
    lo = 0
    while lo < len(letters):
        if len(letters[lo]) != n:
            raise ValueError("circuit generator qubit count mismatch")
        support = tuple(q for q, c in enumerate(letters[lo]) if c != "I")
        if not support:
            raise ValueError("rotation generator must be a non-identity Pauli string")
        hi = lo + 1
        while (
            len(support) <= 2
            and hi < len(letters)
            and hi - lo < _MAX_BLOCK_GATES
            and len(letters[hi]) == n
            and all((c != "I") == (q in support) for q, c in enumerate(letters[hi]))
        ):
            hi += 1
        kernel = None
        if hi - lo > 1:
            local = tuple("".join(g[q] for q in support) for g in letters[lo:hi])
            kernel = _block_kernel(n, support, local)
            max_gates = max(max_gates, hi - lo)
            max_rows = max(max_rows, kernel[2].shape[0])
        blocks.append((lo, hi, kernel))
        lo = hi
    return tuple(blocks), max_gates, max_rows


# einsum subscripts that multiply a block's m (cos, 1j sin) pairs into its
# 2**m products, e.g. "av,bv->abv"
_PRODUCT = {
    m: ",".join(f"{c}v" for c in "abcd"[:m]) + f"->{'abcd'[:m]}v"
    for m in range(2, _MAX_BLOCK_GATES + 1)
}


def run_batch(
    state: np.ndarray, generators, angles: np.ndarray, spare: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply gate ``j``, ``exp(-1j*angles[v, j]/2 * generators[j])``, to
    column ``v`` of the C-contiguous ``(dim, V)`` chunk ``state``, gate by
    gate in fused blocks (see the module docstring).

    ``angles`` is ``(V, len(generators))`` with ``V >= 1``.  ``spare`` is
    a C-contiguous ``(dim, V)`` buffer that must not overlap ``state``.
    The blocks overwrite both in turn; returns ``(result, free)``, the
    buffer that holds the final state and the other one.  A third
    ``(dim, V)`` buffer is allocated only for a block with more than two
    bit-flip patterns.
    """
    dim, n_rows = state.shape
    angles = np.asarray(angles, dtype=np.float64)
    if n_rows < 1 or angles.shape != (n_rows, len(generators)):
        raise ValueError(
            f"angles must be (V, gates) = ({n_rows}, {len(generators)}) with V >= 1, "
            f"got {angles.shape}"
        )
    if spare.shape != state.shape:
        raise ValueError("state and spare buffers differ in shape")
    if not (state.flags.c_contiguous and spare.flags.c_contiguous):
        raise ValueError("run_batch needs C-contiguous (dim, V) buffers")
    if not len(generators):
        return state, spare
    if len(generators[0].letters) != dim.bit_length() - 1:
        raise ValueError("circuit generators do not match the state dimension")
    blocks, max_gates, max_rows = _plan(tuple(g.letters for g in generators))
    # scratch of a few (., V) rows, allocated once: the half angles and
    # (cos, 1j sin) pairs of a window of gates, a block's products and its
    # tables.  A window starts at a fused block and covers whole blocks, at
    # least one and up to about 2**12 angles; against one cos/sin per
    # block it takes 11-14% off a spin-ring run at V = 1 to 3 and makes
    # no difference at V = 3,000
    n_gates = len(generators)
    window = max(max_gates, min(n_gates, (1 << 12) // n_rows))
    half = np.empty((window, n_rows))
    cs = np.zeros((window, 2, n_rows), dtype=np.complex128)
    win_lo = win_hi = 0
    prods = np.empty((1 << max_gates, n_rows), dtype=np.complex128)
    table_buf = np.empty((max_rows, n_rows), dtype=np.complex128)
    work = None
    for lo, hi, kernel in blocks:
        if kernel is None:  # one gate
            rows, generator = state.T, generators[lo]
            if "X" in generator.letters or "Y" in generator.letters:
                rotate_batch(rows, generator, angles[:, lo], out=spare.T, work=rows)
                state, spare = spare, state
            else:
                rotate_batch(rows, generator, angles[:, lo], out=rows)
            continue
        shape, flips, mix, table_shape, diagonal = kernel
        m = hi - lo
        if hi > win_hi:
            win_lo, win_hi = lo, min(lo + window, n_gates)
            h = half[: win_hi - win_lo]
            np.multiply(angles[:, win_lo:win_hi].T, 0.5, out=h)
            np.cos(h, out=cs[: win_hi - win_lo, 0].real)
            np.sin(h, out=cs[: win_hi - win_lo, 1].imag)
        coeff = prods[: 1 << m]
        pairs = cs[lo - win_lo : hi - win_lo]
        np.einsum(_PRODUCT[m], *pairs, out=coeff.reshape(*(2,) * m, n_rows))
        tables = np.matmul(mix, coeff, out=table_buf[: mix.shape[0]])
        tables = tables.reshape(*table_shape, n_rows)
        shape = (*shape, n_rows)
        src = state.reshape(shape)
        if diagonal:  # one multiply in place
            np.multiply(src, tables[0], out=src)
            continue
        out = spare.reshape(shape)
        np.multiply(src, tables[0], out=out)  # the identity flip comes first
        for f in range(1, len(flips) - 1):
            if work is None:
                work = np.empty_like(state)
            tmp = work.reshape(shape)
            np.multiply(src[flips[f]], tables[f], out=tmp)
            out += tmp
        # the block no longer reads src, so the last flip scales it in
        # place: src * t[x ^ f], read at x ^ f, is t[x] * src[x ^ f]
        np.multiply(src, tables[-1][flips[-1][1:]], out=src)
        out += src[flips[-1]]
        state, spare = spare, state
    return state, spare


def run_circuit(
    circuit: list[tuple[PauliString, float]],
    num_qubits: int,
    initial: Statevector | None = None,
) -> Statevector:
    """Apply a sequence of ``(generator, channel_angle)`` rotations to
    ``initial`` (default: the all-zeros state), which is not modified."""
    state = Statevector.zero(num_qubits) if initial is None else initial
    circuit = list(circuit)
    if not circuit:
        return state
    generators = [g for g, _ in circuit]
    if any(g.num_qubits != num_qubits for g in generators):
        raise ValueError("circuit generator qubit count mismatch")
    angles = np.array([[float(a) for _, a in circuit]])
    if not np.isfinite(angles).all():
        raise ValueError("channel angle must be finite")
    amps = state.amps.reshape(-1, 1).copy()
    amps, _ = run_batch(amps, generators, angles, np.empty_like(amps))
    return Statevector(amps[:, 0])


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
