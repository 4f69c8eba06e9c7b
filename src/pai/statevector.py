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

The single-gate kernel :func:`rotate_batch` takes ``(V, dim)`` rows: row
``v`` is the state of variant ``v``.  Any strides work; the transpose of a
C-contiguous ``(dim, V)`` buffer runs fastest, because every inner loop
then runs over ``V`` contiguous variants.  The circuit engine
:func:`_run_program` and the term reader :func:`term_expectations` take
that buffer itself, ``(size, V)`` columns, ``size`` the length of the
state a program runs on.  Expectation values are read per term of an
:class:`Observable`; a lone Pauli string is the one-term observable ``1.0
* G``.

Circuits run as fused blocks (:func:`_run_program`), in the manner of qsim's
gate fusion (Isakov et al., arXiv 2111.02396) with qulacs-style small-gate
kernels (Suzuki et al., arXiv 2011.13524).  Each gate takes one of ``S``
settings per variant: a ``(V, nu)`` array of setting indices picks each
variant's angles from a ``(nu, S)`` table (``S`` is 3 for PAI and for
the two-notch scheme with its ideal states, and 1 for a single circuit).
The plan depends on the generator letters alone: each run of consecutive
gates on one support of at most two qubits whose X and Y letters flip the
same bits, or none, is one block, and a single-qubit Z moves forward,
past gates off its qubit, into the block of the next gate on its qubit.
A block holds at most six gates, ``3**6 = 729`` setting combinations; on
the spin ring it is a bond's XX, YY, ZZ triple with the on-site Z gates
that precede it.  A block's table holds the structurally nonzero entries
of its unitary for every combination, built once per block letters and
setting angles and cached.  :func:`_compile_blocks` compiles a circuit's
plan once: it looks up the tables and lays out each block's gates by
position; per chunk, :func:`_run_program` adds every block's combination
code position by position, at most six row gathers of the setting
indices, and each code picks its column in one ``take``.  So a block is
diagonal, a single in-place multiply, or makes one bit flip
``f`` and is ``D_0 * psi + D_f * psi[c ^ f]``, the second product taken
through a view of the ``(dim, V)`` chunk whose support axes are reversed
where ``f`` flips them; only the structurally nonzero entries are touched
(8 of 16 for a bond triple, whose XX and YY both flip the pair).  A gate
on more than two qubits runs alone through :func:`rotate_batch`, the
single-gate kernel.

A generator with an even count of X and Y letters commutes with the
parity ``Z...Z``, so it keeps a state's parity sector, the Z2 symmetry of
qubit tapering (Bravyi, Gambetta, Mezzacapo and Temme, arXiv 1701.08213),
as every spin-ring gate after the Neel prefix does.  Given the exact
parity ``s`` of the start state, :func:`_compile_blocks` runs the whole
program on the ``(2**(n-1), V)`` half state of the parity frame ``b'_j =
b_0 ^ ... ^ b_j`` (Seeley, Richard and Love, JCP 137, 224109 (2012)),
whose top bit ``b'_{n-1}`` is ``s``.  A block on qubits ``a < b`` flips
frame bits ``a`` to ``b - 1``, one reversed axis, and reads its entries
at frame bits ``a-1, a, b-1, b``; its table is the block's table with the
rows gathered, the same numbers in the same products, so the amplitudes
keep their bits.  The full state is the identity frame of the same
builder, :func:`_block_kernel`.  The start state enters the frame by one
gather (:func:`_frame_index`) and never leaves it: a ring layer makes 12
full-state passes against 24 at 8 qubits.  :func:`term_expectations` reads
in either frame: a term as its frame Pauli string on the half state, or as
itself on the full state.  :func:`_compile_blocks` refuses a frame that
cannot hold a gate, one that flips the parity or acts on three qubits or
more; such a circuit runs on the full state, as :func:`run_circuit` does.

A sampled run builds one :class:`_SettingCircuit` (:func:`_setting_circuit`):
gate ``j`` at setting ``s`` runs at ``table[j, s]``.  Its leading gates
that every variant runs at setting 0, such as the Neel X at pi, run once
on one row through :func:`rotate_batch`; that exact state starts every
chunk, and its parity decides the frame once, from the blocks of every
segment's plan.  The segments, one per cut, are compiled once from those
plans, so a chunk (:func:`_segment_states`) only adds its variants'
combination codes and runs the blocks, on half the amplitudes in the
frame, in chunks of twice the rows.  A chunk holds its two buffers and
little else, all views of one workspace (:func:`_chunk_bytes`) that a
chunk loop reuses: the codes' scratch gives its bytes to the column
buffer before the blocks run, and :func:`term_expectations` reads a
diagonal term inside the free buffer.
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
    "term_expectations",
    "expectation",
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
        return len(self.letters) - self.letters.count("I")

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


def _apply_pauli(amps: np.ndarray, letters: str, out: np.ndarray) -> np.ndarray:
    """Write ``G psi`` for each row ``psi`` of the ``(V, dim)`` batch ``amps``
    into ``out`` and return it, ``G`` the Pauli string ``letters``.

    Each row is viewed with one axis per run of :func:`_view_factors`, the
    X/Y runs reversed, which moves no data, and multiplied by the broadcast
    phase table.  ``out``, of the shape of ``amps``, must not overlap it.
    """
    sizes, index, phase = _pauli_view(letters)
    shape = (amps.shape[0], *sizes)
    np.multiply(amps.reshape(shape)[index], phase, out=out.reshape(shape))
    return out


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
) -> np.ndarray:
    """Apply ``exp(-1j*angles[v]/2 * G)`` to each row of a ``(V, dim)`` batch.

    ``amps`` may have any strides and is left unmodified; the transpose
    of a C-contiguous ``(dim, V)`` buffer runs fastest.  The result goes
    to ``out``, a ``(V, dim)`` array that must not overlap ``amps``,
    allocated in the layout of ``amps`` when not given.  Returns ``out``.
    """
    _check_compatible(generator, amps.shape[1])
    cos, sin = _half_cos_sin(angles)
    if out is None:
        out = np.empty_like(amps)
    work = _apply_pauli(amps, generator.letters, np.empty_like(amps))
    np.multiply(amps, cos[:, None], out=out)
    work *= (-1j * sin)[:, None]
    out += work
    return out


_QUARTER_COS = np.array([1.0, 0.0, -1.0, 0.0])
_QUARTER_SIN = np.array([0.0, 1.0, 0.0, -1.0])


def _half_cos_sin(angles) -> tuple[np.ndarray, np.ndarray]:
    """``cos`` and ``sin`` of half of each channel angle, exactly 0 or +-1
    where the angle is an exact float multiple of pi: ``cos(pi / 2)`` is
    6.1e-17, which an X at pi would leave in the other parity sector.
    Block tables keep ``np.cos`` and ``np.sin``: their gates preserve the
    sector, and snapping them would move output bytes."""
    angles = np.asarray(angles, dtype=np.float64)
    cos, sin = np.cos(0.5 * angles), np.sin(0.5 * angles)
    k = np.round(angles / np.pi)
    exact = (k * np.pi == angles) & np.isfinite(angles)
    if exact.any():
        quarter = (k[exact] % 4).astype(np.intp)
        cos[exact] = _QUARTER_COS[quarter]
        sin[exact] = _QUARTER_SIN[quarter]
    return cos, sin


_PAULI_2X2 = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

# a block's table has one column per setting combination, at most 3**6 =
# 729 for six gates at three settings, so a table takes at most 32 rows (the
# identity and a flip, over four frame bits) * 729 * 16 B = 364 KiB and the
# 128-entry table cache, which blocks that repeat share, at most 46 MiB;
# kernel and Pauli-stack entries take under 2 KiB.  Plans of longer circuits
# are rebuilt on every call, so the 64-entry plan cache holds at most 64 *
# 2,048 blocks
_MAX_BLOCK_GATES = 6
_MAX_SETTINGS = 3
_CACHED_PLAN_GATES = 2048


@lru_cache(maxsize=512)
def _block_kernel(
    num_qubits: int, support: tuple[int, ...], flip: int, sector: int | None = None
):
    """``(shape, index, table_shape, rows)`` of a block on ``support`` (one
    or two qubits, ascending) whose unitary makes the local bit flip
    ``flip``, 0 for a diagonal block, in the frame of ``sector``, which
    the flip keeps.  Sector ``None`` is the identity frame.  Else qubit
    ``q``'s bit is ``b'_{q-1} ^ b'_q`` (``b'_{-1} = 0``, ``b'_{n-1} =
    sector``), and flipping it flips ``b'_q`` and above.

    A chunk reshaped to ``shape + (V,)`` has one axis per run of frame
    bits, highest first: a bit the entries depend on is an axis of its
    own, and the rest merge where the flip moves them alike.  ``index``
    reverses the axes the flip moves, so the view reads ``psi[c ^ f]`` at
    ``c``; it is ``None`` for a diagonal block.  A :func:`_block_table`
    gathered by the tuple ``rows`` (``None`` for no gather) and reshaped
    to ``table_shape + (V,)`` is one table for the identity and, after it,
    one for the flip, broadcast against the view.
    """
    w, bits = len(support), num_qubits - (sector is not None)
    if sector is None:
        reads, moves = [(q,) for q in support], [1 << q for q in support]
    else:
        reads = [tuple(j for j in (q - 1, q) if 0 <= j < bits) for q in support]
        moves = [(1 << bits) - (1 << q) for q in support]  # b'_q and above
    mask = int(np.bitwise_xor.reduce([0] + [moves[i] for i in range(w) if flip >> i & 1]))
    entry = sorted({j for r in reads for j in r})
    def key(j):  # a bit the entries depend on, or -1; whether the flip moves it
        return j if j in entry else -1, mask >> j & 1

    axes = [(k, len(list(run))) for k, run in groupby(range(bits - 1, -1, -1), key=key)]
    shape = tuple(1 << k for _, k in axes)
    index = tuple(slice(None, None, -1 if moved else 1) for (_, moved), _ in axes)
    n_tables = 2 if flip else 1
    table_shape = (n_tables, *(2 if j >= 0 else 1 for (j, _), _ in axes))
    # row i * 2**|entry| + e of the frame table is row i * 2**w + r of the
    # block's table, r the local index at the frame bits e, whose bit t is
    # frame bit entry[t], as the table's axes hold them
    e = np.arange(1 << len(entry))
    r = np.zeros_like(e)
    for i, (q, read) in enumerate(zip(support, reads)):
        local = np.full_like(e, sector if q == bits else 0)
        for j in read:
            local ^= e >> entry.index(j) & 1
        r |= local << i
    rows = tuple(((np.arange(n_tables)[:, None] << w) + r).ravel().tolist())
    rows = None if rows == tuple(range(n_tables << w)) else rows
    return shape, index if flip else None, table_shape, rows


@lru_cache(maxsize=256)
def _block_paulis(local: tuple[str, ...]):
    """``(flip, paulis, rows, cols)`` of a block's gates ``local``, each
    gate's letters lowest support qubit first, which is the least
    significant bit of a local index ``r``.  ``flip`` is the one bit flip
    that the block's X/Y gates make, as :func:`_block_plan` gives them all
    the same one, or 0 for a diagonal block; ``paulis`` stacks the gates'
    ``(2**w, 2**w)`` matrices; ``(rows, cols)`` are the entries ``(r, r)``
    and, for a flip ``f``, then ``(r, r ^ f)``, that :func:`_block_table`
    keeps."""
    flip = 0
    mats = []
    for letters in local:
        flip |= sum(1 << i for i, c in enumerate(letters) if c in "XY")
        mat = np.ones((1, 1), dtype=np.complex128)
        for c in letters:  # the lowest qubit ends up the rightmost factor
            mat = np.kron(_PAULI_2X2[c], mat)
        mats.append(mat)
    r = np.arange(mats[0].shape[0])
    rows, cols = (np.tile(r, 2), np.concatenate([r, r ^ flip])) if flip else (r, r)
    return flip, np.array(mats), rows, cols


@lru_cache(maxsize=128)
def _block_table(
    local: tuple[str, ...], angles: tuple[tuple[float, ...], ...], gather=None
) -> np.ndarray:
    """Structurally nonzero entries of a block's unitary for every setting
    combination, as a read-only ``(rows, S**m)`` array, its rows gathered
    by the tuple ``gather`` of a frame's :func:`_block_kernel` if given.

    Gate ``i`` of the block's ``m`` has letters ``local[i]`` on the support
    and runs at angle ``angles[i][s]`` at setting ``s``.  Column ``sum_i
    s_i * S**i`` holds the combination ``(s_0, s_1, ...)``; row ``r``
    holds ``U[r, r]`` and, for a block with the flip ``f`` of
    :func:`_block_paulis`, row ``2**w + r`` holds ``U[r, r ^ f]``.  Keyed on
    letters and angles, so blocks and calls that repeat them share one
    entry.
    """
    _, paulis, rows, cols = _block_paulis(local)
    k = paulis.shape[1]
    half = 0.5 * np.array(angles)[:, :, None, None]
    gates = np.cos(half) * np.eye(k) - 1j * np.sin(half) * paulis[:, None]
    unitary = gates[0]
    for i in range(1, len(local)):
        # gate i's setting becomes the leading, most significant axis
        unitary = np.matmul(gates[i].reshape(-1, *(1,) * i, k, k), unitary)
    out = unitary.reshape(-1, k, k)[:, rows, cols].T
    out = np.ascontiguousarray(out if gather is None else out[list(gather)])
    out.flags.writeable = False
    return out


def _plan(letters: tuple[str, ...]) -> tuple:
    """:func:`_block_plan`, from its cache only for circuits of at most
    2,048 gates."""
    if len(letters) > _CACHED_PLAN_GATES:
        return _block_plan.__wrapped__(letters)
    return _block_plan(letters)


@lru_cache(maxsize=64)
def _block_plan(letters: tuple[str, ...]) -> tuple:
    """The blocks of a gate sequence, ``(gates, local, support, flip)``
    per block in run order: the block applies gates ``gates`` in that
    order on the qubits ``support``, ``local`` holds their letters there
    and ``flip`` the bit flip of :func:`_block_paulis`.  Consecutive
    gates on one support of at most two qubits share a block, up to six,
    while their local X/Y bit flips are 0 or one same flip, so a block is
    diagonal or makes one flip; a run of mixed flips on one support, say
    XZ, ZX, XZ on a pair, splits into a block per change of flip.  A
    single-qubit Z waits, past gates off its qubit, and joins the block of
    the next gate on its qubit, right before that gate; Zs still waiting at
    the end, or before a wider gate, run as blocks of their own, one qubit
    each.  A gate on more than two qubits is a block of its own with
    ``local`` and ``flip`` ``None``, for :func:`rotate_batch`.
    """
    n = len(letters[0])
    runs: list[tuple[list[int], tuple[int, ...]]] = []
    waiting: dict[int, list[int]] = {}  # qubit -> its Zs not yet placed
    current: list[int] = []
    support: tuple[int, ...] = ()
    flip = 0  # the open block's local bit flip; 0 while it is diagonal

    def place(zs):
        for q in sorted({letters[z].index("Z") for z in zs}):
            mine = [z for z in zs if letters[z][q] == "Z"]
            for lo in range(0, len(mine), _MAX_BLOCK_GATES):
                runs.append((mine[lo : lo + _MAX_BLOCK_GATES], (q,)))

    for j, g in enumerate(letters):
        if len(g) != n:
            raise ValueError("circuit generator qubit count mismatch")
        on = tuple(q for q, c in enumerate(g) if c != "I")
        if not on:
            raise ValueError("rotation generator must be a non-identity Pauli string")
        if len(on) == 1 and g[on[0]] == "Z":
            waiting.setdefault(on[0], []).append(j)
            continue
        zs = sorted(z for q in on for z in waiting.pop(q, ()))
        f = sum(1 << i for i, q in enumerate(on) if g[q] in "XY")
        clash = f and flip and f != flip
        if on != support or clash or len(current) + len(zs) >= _MAX_BLOCK_GATES or len(on) > 2:
            if current:
                runs.append((current, support))
            current, support, flip = [], on, 0
            if len(zs) >= _MAX_BLOCK_GATES or len(on) > 2:
                place(zs)
                zs = []
        current += [*zs, j]
        flip |= f
    if current:
        runs.append((current, support))
    place(sorted(z for zs in waiting.values() for z in zs))
    blocks = []
    for gates, on in runs:
        if len(on) > 2:
            blocks.append((tuple(gates), None, on, None))
            continue
        local = tuple("".join(letters[j][q] for q in on) for j in gates)
        blocks.append((tuple(gates), local, on, _block_paulis(local)[0]))
    return tuple(blocks)


@dataclass(frozen=True)
class _BlockProgram:
    """A gate sequence and its ``(nu, S)`` setting-angle table compiled into
    fused blocks by :func:`_compile_blocks`, ready to run on any chunk.

    ``steps`` holds ``(kernel, entries)`` per block in run order:
    ``kernel`` is the :func:`_block_kernel` and ``entries`` the looked-up
    :func:`_block_table`, gathered into the kernel's frame, or, for a gate
    on more than two qubits, ``kernel`` is ``None`` and ``entries`` is
    ``(generator, angles)``, the gate and its ``S`` setting angles.
    ``slots[i, b]`` is the ``i``-th gate of block ``b``, whose setting
    index has the code weight ``S**i``, or ``num_gates`` past the block's
    last gate, a zero row, so a variant's setting indices add to one
    combination code per block position by position.  ``rows`` is the most
    table rows of a block.  ``sector`` is the parity sector whose frame the
    program runs in, or ``None`` for the full state.
    """

    num_qubits: int
    num_gates: int
    n_settings: int
    steps: tuple
    slots: np.ndarray
    rows: int
    sector: int | None = None


def _parity(amps: np.ndarray) -> int | None:
    """The index parity shared by every nonzero amplitude of the state
    ``amps``; ``None`` when both parities hold one, or neither does."""
    odd = np.bitwise_count(np.arange(amps.shape[0], dtype=np.uint32)) & 1
    # np.unique would do, but its first call maps about 1.6 MiB of code
    held = odd[amps != 0]
    return int(held[0]) if held.size and (held == held[0]).all() else None


def _frame_index(num_qubits: int, sector: int) -> np.ndarray:
    """Entry ``x`` is the full index of half-state index ``x`` in the parity
    frame of ``sector``."""
    bits = num_qubits - 1
    y = np.arange(1 << bits) | sector << bits
    return (y ^ y << 1) & ((2 << bits) - 1)  # b_q = b'_{q-1} ^ b'_q


def _keeps_sector(blocks) -> bool:
    """Whether a parity frame holds every block of a :func:`_plan`: each
    acts on at most two qubits (its flip is not ``None``) and flips an even
    number of them, so it keeps its parity sector."""
    return all(flip is not None and flip.bit_count() % 2 == 0 for *_, flip in blocks)


def _compile_blocks(
    generators, table: np.ndarray, sector: int | None = None, blocks=None
) -> _BlockProgram:
    """Compile the blocks of ``generators`` at the ``(nu, S)`` setting
    angles ``table`` and look up every block's table, once per circuit;
    chunks then run through :func:`_run_program`.  ``blocks`` is the
    :func:`_plan` of ``generators``, planned here when not given.

    ``sector`` is the exact index parity of every chunk's start state,
    whose parity frame the program runs in (see the module docstring), or
    ``None`` for the full state.  A frame that cannot hold a gate, one that
    flips the parity or acts on three qubits or more, raises ``ValueError``.
    """
    nu = len(generators)
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] != nu or not 1 <= table.shape[1] <= _MAX_SETTINGS:
        raise ValueError(f"table must be (gates, S) = ({nu}, 1 to 3), got {table.shape}")
    n_settings = table.shape[1]
    if not nu:
        return _BlockProgram(0, 0, n_settings, (), np.zeros((0, 0), dtype=np.intp), 0)
    n = generators[0].num_qubits
    if blocks is None:
        blocks = _plan(tuple(g.letters for g in generators))
    if sector is not None and not _keeps_sector(blocks):
        raise ValueError(f"the frame of sector {sector} cannot hold a parity flip or a wide gate")
    angles = table.tolist()
    steps = []
    rows = 1
    for gates, local, on, flip in blocks:
        if local is None:  # a gate on more than two qubits
            steps.append((None, (generators[gates[0]], table[gates[0]])))
            continue
        kernel = _block_kernel(n, on, flip, sector)
        entries = _block_table(local, tuple(tuple(angles[j]) for j in gates), kernel[3])
        rows = max(rows, entries.shape[0])
        steps.append((kernel, entries))
    width = max(len(gates) for gates, *_ in blocks)
    slots = np.array([(*gates, *[nu] * (width - len(gates))) for gates, *_ in blocks])
    slots = np.ascontiguousarray(slots.T, dtype=np.intp)
    return _BlockProgram(n, nu, n_settings, tuple(steps), slots, rows, sector)


def _passes(kernel) -> int:
    """Amplitude passes of one block over its state: one multiply for a
    diagonal block, two multiplies and an add for a block with one flip,
    four for a gate on more than two qubits (:func:`rotate_batch`)."""
    return 4 if kernel is None else 1 if kernel[1] is None else 3


def _amp_updates(program: _BlockProgram) -> int:
    """Amplitude updates of one column through ``program``: every pass of
    a block over its state, ``2**n`` amplitudes or half in a frame."""
    passes = sum(_passes(kernel) for kernel, _ in program.steps)
    return passes << program.num_qubits >> (program.sector is not None)


def _span(shape, dtype) -> int:
    """Bytes that a C-contiguous ``shape`` array of ``dtype`` takes in a
    workspace, rounded up to whole 64-byte lines, so the next view starts
    on a line."""
    return -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64


def _view(work: np.ndarray, offset: int, shape, dtype) -> np.ndarray:
    """The C-contiguous ``shape`` array of ``dtype`` over the bytes of the
    uint8 workspace ``work`` from ``offset``."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    return work[offset : offset + nbytes].view(dtype).reshape(shape)


def _program_bytes(program: _BlockProgram, n_rows: int) -> int:
    """Scratch bytes of :func:`_run_program` on ``n_rows`` columns: the
    ``(blocks, V)`` int16 codes, then either the int8 copy of the settings
    with a zero row and one gathered setting row per block, while the codes
    are added, or the ``(rows, V)`` column buffer, while the blocks run."""
    if not program.num_gates:
        return 0
    code_shape = (len(program.steps), n_rows)
    build = _span((program.num_gates + 1, n_rows), np.int8) + _span(code_shape, np.int8)
    tables = _span((program.rows, n_rows), np.complex128)
    return _span(code_shape, np.int16) + max(build, tables)


def _run_program(
    program: _BlockProgram,
    state: np.ndarray,
    settings: np.ndarray,
    spare: np.ndarray,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply gate ``j`` of ``program`` at angle ``table[j, settings[v,
    j]]``, ``exp(-1j*angle/2 * generators[j])``, to column ``v`` of the
    C-contiguous ``(size, V)`` chunk ``state``, in the fused blocks that
    :func:`_compile_blocks` planned from ``generators`` and ``table`` (see
    the module docstring).  Per chunk it only adds the combination codes,
    takes each block's columns and multiplies.  Its scratch is the uint8
    ``scratch`` of at least :func:`_program_bytes`, or a fresh one when
    not given: the ``(blocks, V)`` int16 codes lie at its head, and behind
    them the codes' scratch, an int8 copy of the settings with a zero row,
    gives way to one ``(rows, V)`` column buffer before the first block.
    Its bytes need no value on entry; every view is written before it is
    read.

    ``settings`` is a ``(V, len(generators))`` integer array with ``V >=
    1`` and entries in ``[0, S)``.  ``spare`` is a C-contiguous ``(size,
    V)`` buffer that must not overlap ``state``.  The blocks overwrite both
    in turn; returns ``(result, free)``, the buffer that holds the final
    state and the other one.  A block is diagonal, one multiply in place,
    or makes one bit flip ``f``, ``t_0 * psi + t_f * psi[c ^ f]`` into the
    other buffer, so no third buffer is needed.  A program in a
    parity frame runs on buffers that hold the ``2**(n-1)`` amplitudes of
    its frame (:func:`_frame_index`) and never leaves it;
    :func:`term_expectations` reads the result in that frame.
    """
    size, n_rows = state.shape
    nu = program.num_gates
    settings = np.asarray(settings)
    if n_rows < 1 or settings.shape != (n_rows, nu) or settings.dtype.kind not in "iu":
        raise ValueError(
            f"settings must be (V, gates) = ({n_rows}, {nu}) integers with V >= 1, "
            f"got {settings.dtype} {settings.shape}"
        )
    # an index outside [0, S) would read another combination's column
    if nu and (settings.min() < 0 or settings.max() >= program.n_settings):
        raise ValueError(f"settings must lie in [0, {program.n_settings})")
    if spare.shape != state.shape:
        raise ValueError("state and spare buffers differ in shape")
    if not (state.flags.c_contiguous and spare.flags.c_contiguous):
        raise ValueError("state and spare must be C-contiguous (size, V) buffers")
    if not nu:
        return state, spare
    if size != 1 << program.num_qubits >> (program.sector is not None):
        raise ValueError("circuit generators do not match the state dimension")
    if scratch is None:
        scratch = np.empty(_program_bytes(program, n_rows), dtype=np.uint8)
    # one combination code per block and variant, one contiguous row per
    # block, added highest position first: code = (s_5 * S + s_4) * S + ...,
    # below 3**6 = 729; the zero row nu pads a short block's slots.  "clip"
    # takes no copy of out, and every slot lies in [0, nu]
    code_shape = (len(program.steps), n_rows)
    head = _span(code_shape, np.int16)
    codes = _view(scratch, 0, code_shape, np.int16)
    rows = _view(scratch, head, (nu + 1, n_rows), np.int8)
    gathered = _view(scratch, head + _span(rows.shape, np.int8), code_shape, np.int8)
    rows[:nu] = settings.T
    rows[nu] = 0
    codes[...] = rows.take(program.slots[-1], axis=0, out=gathered, mode="clip")
    for slot in program.slots[-2::-1]:
        codes *= program.n_settings
        codes += rows.take(slot, axis=0, out=gathered, mode="clip")
    del rows, gathered  # the column buffer takes their bytes
    table_buf = _view(scratch, head, (program.rows, n_rows), np.complex128)
    for (kernel, entries), code in zip(program.steps, codes):
        if kernel is None:  # a gate on more than two qubits
            generator, angles = entries
            rotate_batch(state.T, generator, angles[code], out=spare.T)
            state, spare = spare, state
            continue
        shape, index, table_shape, _ = kernel
        # the range check above keeps every code in [0, S**m), so "clip" only
        # skips the per-index check and the copy of out that "raise" makes
        tables = entries.take(code, axis=1, out=table_buf[: entries.shape[0]], mode="clip")
        tables = tables.reshape(*table_shape, n_rows)
        shape = (*shape, n_rows)
        src = state.reshape(shape)
        if index is None:  # diagonal: one multiply in place
            np.multiply(src, tables[0], out=src)
            continue
        out = spare.reshape(shape)
        np.multiply(src, tables[0], out=out)  # the identity flip comes first
        # the block no longer reads src, so the flip scales it in place:
        # src * t[x ^ f], read at x ^ f, is t[x] * src[x ^ f]
        np.multiply(src, tables[1][index], out=src)
        out += src[index]
        state, spare = spare, state
    return state, spare


@dataclass(frozen=True)
class _SettingCircuit:
    """A circuit whose gate ``j`` runs at angle ``table[j, s]`` in a
    variant that draws setting ``s``.  Its first ``start`` gates take
    setting 0 in every variant, so they run once: ``initial`` is the state
    they make from ``|0...0>``, in the parity frame of ``sector`` (``None``:
    the full state), which every variant shares.  The rest run in
    ``segments``, ``(lo, hi, program)`` per cut after ``start``: the gates
    from ``lo`` up to ``hi``, compiled once, in that frame, by
    :func:`_compile_blocks`."""

    start: int
    initial: np.ndarray
    segments: tuple
    sector: int | None


def _setting_circuit(
    generators, table: np.ndarray, fixed, num_qubits: int, cuts=None
) -> _SettingCircuit:
    """The :class:`_SettingCircuit` of ``generators`` at the ``(nu, S)``
    setting angles ``table``, in segments that end at each of the ascending
    ``cuts`` after its fixed prefix (default: one segment to the last gate).

    Its fixed prefix is the leading gates, up to the last cut, that
    ``fixed`` marks as taking setting 0 in every variant, such as the Neel
    X at pi; it runs once, on one row, through :func:`rotate_batch`, which
    takes an angle at a multiple of pi exactly, so the Neel state has one
    nonzero amplitude.  A cut at or before its end starts no segment.
    The frame is decided here, once: every segment is compiled in the frame
    of the exact parity of the prefix state (:func:`_parity`) if the blocks
    of every segment's plan keep it (:func:`_keeps_sector`), and on the
    full state otherwise; the prefix state enters that frame by one gather.
    Each segment is planned once, and that plan is the one compiled.
    """
    cuts = [len(generators)] if cuts is None else list(cuts)
    amps = Statevector.zero(num_qubits).amps[None]
    start = 0
    while start < cuts[-1] and fixed[start]:
        amps = rotate_batch(amps, generators[start], table[start, :1])
        start += 1
    later = [cut for cut in cuts if cut > start]
    bounds = list(zip([start, *later], later))
    sector = _parity(amps[0])
    letters = tuple(g.letters for g in generators)
    plans = [_plan(letters[lo:hi]) for lo, hi in bounds]
    if sector is not None and not all(_keeps_sector(blocks) for blocks in plans):
        sector = None  # a gate flips the parity or acts on three qubits or more
    programs = [
        _compile_blocks(generators[lo:hi], table[lo:hi], sector, blocks)
        for (lo, hi), blocks in zip(bounds, plans)
    ]
    initial = amps[0] if sector is None else amps[0][_frame_index(num_qubits, sector)]
    segments = tuple((lo, hi, program) for (lo, hi), program in zip(bounds, programs))
    return _SettingCircuit(start, initial, segments, sector)


def _chunk_bytes(circuit: _SettingCircuit, n_rows: int) -> int:
    """Bytes of the workspace that :func:`_segment_states` runs a chunk of
    ``n_rows`` variants of ``circuit`` in: its two ``(size, V)`` complex
    buffers and the largest segment's :func:`_program_bytes`."""
    buffer = _span((circuit.initial.shape[0], n_rows), np.complex128)
    programs = [_program_bytes(program, n_rows) for *_, program in circuit.segments]
    return 2 * buffer + max(programs, default=0)


def _segment_states(circuit: _SettingCircuit, settings: np.ndarray, work=None):
    """Run one chunk of ``circuit`` at the ``(V, nu)`` setting indices
    ``settings``, yielding ``(state, free)`` after each segment (or once,
    at the start, when there is none): the ``(size, V)`` state, in the
    circuit's frame, and the other buffer, free for the caller.  The
    chunk's two buffers are C-contiguous ``(size, V)``, ``size`` the length
    of ``circuit.initial``, so the kernel's inner loops run over the
    variants; every column of the state starts as ``circuit.initial``.

    The buffers, and behind them every segment's :func:`_run_program`
    scratch, are views of the uint8 workspace ``work`` of at least
    :func:`_chunk_bytes`, which a chunk loop reuses from chunk to chunk,
    or of a fresh one when it is not given.  Its bytes need no value on
    entry: the state is filled here."""
    n_rows = settings.shape[0]
    shape = (circuit.initial.shape[0], n_rows)
    if work is None:
        work = np.empty(_chunk_bytes(circuit, n_rows), dtype=np.uint8)
    buffer = _span(shape, np.complex128)
    state = _view(work, 0, shape, np.complex128)
    spare = _view(work, buffer, shape, np.complex128)
    scratch = work[2 * buffer :]
    state[...] = circuit.initial[:, None]
    if not circuit.segments:
        yield state, spare
    for lo, hi, program in circuit.segments:
        state, spare = _run_program(program, state, settings[:, lo:hi], spare, scratch)
        yield state, spare


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
    table = np.array([[float(a)] for _, a in circuit])  # one setting per gate
    if not np.isfinite(table).all():
        raise ValueError("channel angle must be finite")
    amps = state.amps.reshape(-1, 1).copy()
    settings = np.zeros((1, len(circuit)), dtype=np.int8)
    program = _compile_blocks(generators, table)
    amps, _ = _run_program(program, amps, settings, np.empty_like(amps))
    return Statevector(amps[:, 0])


def _as_observable(observable) -> Observable:
    """``observable`` itself, or a Pauli string as the one-term sum ``1.0 * G``."""
    if isinstance(observable, PauliString):
        return Observable(terms=((1.0, observable),))
    return observable


@lru_cache(maxsize=256)
def _frame_term(letters: str, sector: int | None) -> tuple[str | None, int]:
    """``(frame, sign)``: in the parity frame of ``sector`` the string
    ``letters`` is ``sign`` times ``frame`` on the ``n - 1`` frame bits, or
    ``frame`` is ``None`` where it flips the parity and reads 0; sector
    ``None`` maps it to itself.  Flipping qubit ``q`` flips frame bits
    ``q`` and up, a Z on ``q`` reads frame bits ``q - 1`` and ``q`` (the
    top one the sector), and ``Y = iXZ`` on both sides: ``YY`` on qubits
    ``k, k + 1`` becomes ``-Z'X'Z'``."""
    if sector is None:
        return letters, 1
    n = len(letters)
    flip = z = 0
    for q, c in enumerate(letters):
        flip ^= (1 << n) - (1 << q) if c in "XY" else 0
        z ^= (3 << q >> 1) if c in "YZ" else 0  # frame bits q - 1 and q
    if flip >> (n - 1) & 1:
        return None, 0
    frame = "".join("IXZY"[(flip >> j & 1) | (z >> j & 1) << 1] for j in range(n - 1))
    turns = 2 * sector * (z >> (n - 1) & 1) + letters.count("Y") - frame.count("Y")
    return frame, 1 - 2 * (turns // 2 % 2)


def _column_sums(cols: np.ndarray) -> np.ndarray:
    """Sum of each column of a ``(size, V)`` array, added row by row in
    index order, so a column's bits never depend on ``V``: numpy sums a
    lone column pairwise, so it is accumulated instead."""
    return cols.cumsum(axis=0)[-1] if cols.shape[1] == 1 else cols.sum(axis=0)


def term_expectations(
    state: np.ndarray, terms, sector: int | None = None, spare: np.ndarray | None = None
) -> np.ndarray:
    """``(V, T)`` expectation of every ``(coeff, pauli)`` term of ``terms``
    for each column of the ``(size, V)`` state, coefficients not applied.

    The state is in the parity frame of ``sector``, the half state a
    program compiled for it runs on, or on the full state for ``None``;
    each term is read as its :func:`_frame_term`.  A term on the wrong
    qubit count for ``size`` raises ``ValueError``.  ``spare``, a free
    C-contiguous buffer of the state's shape, is overwritten; one is
    allocated when it is not given.  The diagonal (Z-only) terms are read
    first, the probabilities in one float half of ``spare`` and each term's
    signed products in the other, so a read allocates no state-sized
    temporary; then each X/Y term writes ``G psi`` over both halves.
    """
    out = np.zeros((state.shape[1], len(terms)))
    reads = []
    for t, (_, pauli) in enumerate(terms):
        _check_compatible(pauli, state.shape[0] << (sector is not None))
        letters, sign = _frame_term(pauli.letters, sector)
        if letters is not None:  # a term that flips the parity reads 0
            reads.append(("X" in letters or "Y" in letters, t, letters, sign))
    if spare is None:
        spare = np.empty(state.shape, dtype=np.complex128)
    probs = None
    for flips, t, letters, sign in sorted(reads):  # diagonal terms first
        if flips:  # <psi|G psi>, G psi in spare
            _apply_pauli(state.T, letters, spare.T)
            spare *= state.conj()
            cols = spare.real
        else:  # a signed sum of probabilities
            if probs is None:
                probs, cols = spare.reshape(-1).view(np.float64).reshape(2, *state.shape)
                np.square(state.real, out=probs)
                probs += np.square(state.imag, out=cols)
            # the +-1 diagonal, a cached table broadcast over its axes
            sizes, _, phase = _pauli_view(letters)
            np.multiply(
                probs.reshape(*sizes, -1), phase[0].real[..., None], out=cols.reshape(*sizes, -1)
            )
        out[:, t] = sign * _column_sums(cols)
    return out


def _term_sum(values: np.ndarray, terms) -> np.ndarray:
    """``sum_t c_t * values[:, t]`` over the ``(c_t, pauli)`` terms, added
    in term order, so a row's value never depends on its chunk."""
    coeffs = [float(coeff) for coeff, _ in terms]
    total = coeffs[0] * values[:, 0]
    for t in range(1, len(coeffs)):
        total += coeffs[t] * values[:, t]
    return total


def expectation(state: Statevector, observable: PauliString | Observable) -> float:
    """Expectation value of a real Pauli-sum observable or a Pauli string;
    a real number in [-1, 1] for a string and a normalized state."""
    terms = _as_observable(observable).terms
    return float(_term_sum(term_expectations(state.amps[:, None], terms), terms)[0])

