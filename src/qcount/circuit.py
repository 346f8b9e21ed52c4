"""Verifier circuits over the {H, S, Toffoli} gate set.

A verifier acts on three registers laid out ancilla-first: qubits
[0, a) are ancillas with qubit 0 the designated output, qubits
[a, a+n) hold the classical input, and qubits [a+n, a+n+w) hold the
witness.  Basis states are indexed big-endian, so qubit 0 is the most
significant bit and the index of |b0 b1 ... b_{Q-1}> is the integer
with binary digits b0 b1 ... b_{Q-1}.  That choice makes the
output-qubit projector the bottom half of the index range, which the
spectral and block-encoding code exploits.

Circuits are loaded from the qcv v1 text format:

    # optional comments and blank lines
    registers: ancilla=1 input=0 witness=2
    H 0
    TOF 1 2 0

Gate lines are `H q`, `S q`, `SDG q`, `Z q`, `X q`, `TOF c1 c2 t`;
`#` starts a comment anywhere.  SDG, Z and X are sugar, expanded at
parse time into the core set (S**3, S**2, and H S S H respectively),
so derived gate counts always refer to the expanded circuit.

`_apply_gate` is the one gate kernel, and `_track` the one bookkeeping
of which qubits it runs on.  A qubit is a constant bit until an H, or a
TOF with a superposed control, puts it into superposition; only then
does it become a tensor axis.  `simulate` runs this on one basis state.
`_witness_blocks` runs it on every |0^a x y> at once, a column block at
a time, for both the compact embed (`embedded_witness_matrix`) and the
path sum's walk counts: there a witness qubit starts as a diagonal
column axis, whose bit is each column's own, so a column stores only the
rows its superposed qubits span.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import CapExceeded, CircuitFormatError, InvariantViolation, PreconditionError
from .limits import SIM_QUBIT_CAP, check_dense

CORE_KINDS = ("H", "S", "TOF")

_MNEMONICS = {
    **{kind: (kind,) for kind in CORE_KINDS},
    "X": ("H", "S", "S", "H"),
    "Z": ("S", "S"),
    "SDG": ("S", "S", "S"),
}

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_BLOCK_BYTES = 1 << 20  # bytes of one gate-kernel column block: bounds a run's working memory

NORM_TOL = 1e-9


@dataclass(frozen=True)
class Gate:
    """One core gate: kind in {H, S, TOF} acting on `qubits`."""

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in CORE_KINDS:
            raise PreconditionError(f"unknown core gate kind {self.kind!r}")
        arity = 3 if self.kind == "TOF" else 1
        if len(self.qubits) != arity:
            raise PreconditionError(
                f"{self.kind} takes {arity} qubit(s), got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise PreconditionError(f"gate qubits must be distinct, got {self.qubits}")


@dataclass(frozen=True)
class VerifierCircuit:
    """Gate list plus register sizes; gates are already core-set only."""

    num_ancilla: int
    num_input: int
    num_witness: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.num_ancilla < 1:
            raise PreconditionError("at least one ancilla (the output qubit) is required")
        if self.num_input < 0 or self.num_witness < 0:
            raise PreconditionError("register sizes must be nonnegative")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise PreconditionError(
                        f"gate {g.kind} {g.qubits} references qubit {q}, "
                        f"but the circuit has {self.num_qubits} qubits"
                    )

    @property
    def num_qubits(self) -> int:
        return self.num_ancilla + self.num_input + self.num_witness

    @property
    def gate_count(self) -> int:
        """Total gates after sugar expansion (the parameter t)."""
        return len(self.gates)

    @property
    def h_count(self) -> int:
        """Hadamard count after sugar expansion (the parameter h)."""
        return sum(1 for g in self.gates if g.kind == "H")

    def output_cone(self) -> VerifierCircuit:
        """The same registers with only the gates in qubit 0's backward light cone.

        Walking back from the output, a gate stays when it touches a qubit
        the kept gates after it (or the output) touch.  Every other gate
        commutes with what follows it and cancels in V' P V, so the cone
        accepts every input with the same probability.  Computed once per
        circuit and then reused.
        """
        return self._output_cone

    @cached_property
    def _output_cone(self) -> VerifierCircuit:
        linked = {0}
        kept = []
        for gate in reversed(self.gates):
            if not linked.isdisjoint(gate.qubits):
                linked.update(gate.qubits)
                kept.append(gate)
        return VerifierCircuit(
            self.num_ancilla, self.num_input, self.num_witness, tuple(reversed(kept))
        )

    def to_qcv(self) -> str:
        """Canonical qcv text: header plus one core gate per line."""
        lines = [
            f"registers: ancilla={self.num_ancilla} "
            f"input={self.num_input} witness={self.num_witness}"
        ]
        lines.extend(f"{g.kind} {' '.join(str(q) for q in g.qubits)}" for g in self.gates)
        return "\n".join(lines) + "\n"


def circuit_hash(circuit: VerifierCircuit) -> str:
    """sha256 of the canonical qcv text; stable across processes."""
    return hashlib.sha256(circuit.to_qcv().encode("utf-8")).hexdigest()


_HEADER_RE = re.compile(r"^registers:\s*ancilla=(\d+)\s+input=(\d+)\s+witness=(\d+)$")


def parse_circuit(text: str) -> VerifierCircuit:
    """Parse qcv v1 text, expanding sugar gates into the core set.

    Each line is checked by building it through Gate and VerifierCircuit;
    their errors, and a qubit index that is not an integer, come back as a
    CircuitFormatError naming the line and quoting it.
    """
    header: tuple[int, ...] | None = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if header is None:
                m = _HEADER_RE.match(line)
                if m is None:
                    raise CircuitFormatError(
                        "expected 'registers: ancilla=<a> input=<n> witness=<w>' header"
                    )
                header, line_gates = tuple(map(int, m.groups())), ()
            else:
                mnemonic, *args = line.split()
                kinds = _MNEMONICS.get(mnemonic.upper())
                if kinds is None:
                    raise CircuitFormatError(f"unknown gate mnemonic {mnemonic!r}")
                qubits = tuple(map(int, args))
                line_gates = tuple(Gate(kind, qubits) for kind in kinds)
            VerifierCircuit(*header, line_gates)
        except ValueError as exc:  # PreconditionError is a ValueError too
            raise CircuitFormatError(f"line {lineno} ({line!r}): {exc}") from None
        gates.extend(line_gates)
    if header is None:
        raise CircuitFormatError("no registers header found")
    return VerifierCircuit(*header, tuple(gates))


def load_circuit(path: str) -> VerifierCircuit:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read circuit file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CircuitFormatError(f"circuit file {path} is not UTF-8 text: {exc}") from None
    return parse_circuit(text)


def _times_i(one: np.ndarray) -> None:
    one *= 1j


def _apply_gate(view: np.ndarray, kind: str, axes, sub=np.subtract, times_i=_times_i) -> None:
    # One gate on the (2,)*k + (m, ...) view, in place, with `axes` the
    # axes of its qubits (controls first, target last); a function of its
    # own so that H's half-size temporary is freed before the next gate.
    # `sub(a, b, out=b)` and `times_i(b)` are the two ring operations the
    # gates need beyond addition: complex by default, and the phase-tally
    # ring of the path sum (pathsum) when it passes its own.
    *controls, target = axes
    index = [slice(1, 2) if ax in controls else slice(None) for ax in range(view.ndim)]
    index[target] = 0
    zero = view[tuple(index)]
    index[target] = 1
    one = view[tuple(index)]
    if kind == "S":
        times_i(one)
    elif kind == "H":  # unnormalized: [[1, 1], [1, -1]]
        total = zero + one
        sub(zero, one, out=one)
        zero[...] = total
    else:  # TOF: swap the target halves where every control is set
        swap = zero.copy()
        zero[...] = one
        one[...] = swap


_COLUMN = "column"  # a grow whose bit is each column's own: a diagonal witness qubit


def _track(gates, bits: dict[int, int], columns=()) -> tuple[list, list[int], list]:
    """The compact layout: each gate as a step on the qubits that are not constant bits.

    `bits` maps each constant qubit to its bit and is updated in place;
    `columns` are the diagonal qubits, witness qubits whose bit is their
    column's own.  An H puts its target into superposition, and so does a
    TOF with a superposed control; a TOF with a diagonal control puts a
    constant target there too.  A constant control at 0 skips the gate, one
    at 1 drops out, and S on a constant 1 is a phase i on everything.  A
    TOF whose live operands are all diagonal permutes the columns; so does
    one with no live control, on a diagonal target.  Returns the steps
    (kind, live qubits (controls, then target), grow), where grow is None
    or the bit (or _COLUMN) of a target entering superposition; the
    superposed qubits at the end, ascending; and the qubits of each
    column permutation.
    """
    rows: list[int] = []
    diagonal = set(columns)
    steps, permutations = [], []
    for gate in gates:
        *controls, target = gate.qubits
        if any(bits.get(c) == 0 for c in controls):
            continue
        live = tuple(c for c in controls if c not in bits)
        grow = None
        if target in bits:
            if gate.kind == "S":
                if bits[target]:
                    steps.append(("S", (), None))
                continue
            if gate.kind == "TOF" and not live:
                bits[target] ^= 1
                continue
            grow = bits.pop(target)
        elif target in diagonal and gate.kind != "S":
            if gate.kind == "TOF" and diagonal.issuperset(live):
                permutations.append((*live, target))
            else:
                diagonal.remove(target)
                grow = _COLUMN
        if grow is not None:
            bisect.insort(rows, target)
        steps.append((gate.kind, (*live, target), grow))
    return steps, rows, permutations


def _grow(tensor: np.ndarray, pos: int, bit, column: int) -> np.ndarray:
    # `tensor` with a new axis at `pos` holding zeros opposite the bit; for
    # _COLUMN the bit is the one of the column axis `column`, a diagonal init
    grown = np.zeros(tensor.shape[:pos] + (2,) + tensor.shape[pos:], tensor.dtype)
    if bit != _COLUMN:
        grown[(slice(None),) * pos + (bit,)] = tensor
        return grown
    for b in (0, 1):
        grown[(slice(None),) * pos + (b,) + (slice(None),) * (column - pos) + (b,)] = tensor[
            (slice(None),) * column + (b,)
        ]
    return grown


def _run_steps(
    tensor: np.ndarray,
    steps,
    columns=None,
    fixed=None,
    sub=np.subtract,
    times_i=_times_i,
    odd_root=_INV_SQRT2,
) -> np.ndarray:
    """Run `_track`'s steps on the tensor of the superposed qubits; return it.

    Its leading axes are the superposed qubits, ascending, and its next
    ones the column axes of the diagonal qubits in `columns` (qubit to
    index); `fixed` maps the other diagonal qubits to this block's bit,
    which acts as a constant.  A target enters as a new axis holding zeros
    opposite its bit, and the gate that put it there then runs on the
    kernel, so every amplitude meets the same float operations as in a
    run over all 2**Q rows.  H is [[1, 1], [1, -1]]: every 64 H scale by
    exactly 2**-32, the r left by 2**-(r // 2) at the end, times `odd_root`
    (1/sqrt(2)) for odd r, so an even-h run is exactly Gaussian integers
    over 2**(h/2).  `odd_root=None` runs exact counts, never rescaled.
    """
    columns, fixed = columns or {}, dict(fixed or {})
    rows: list[int] = []
    r = 0  # unnormalized H gates since the last rescale
    for kind, qubits, grow in steps:
        if not qubits:
            times_i(tensor)
            continue
        *controls, target = qubits
        if grow is not None:
            pos = bisect.bisect(rows, target)
            column = len(rows) + columns.get(target, 0)
            tensor = _grow(tensor, pos, fixed.pop(target, grow), column)
            rows.insert(pos, target)
        if target in fixed:  # an S on a diagonal qubit this block holds constant
            if fixed[target]:
                times_i(tensor)
        elif all(fixed.get(c, 1) for c in controls):  # else a control is 0 in this block
            live = [c for c in qubits if c not in fixed]
            axes = [rows.index(c) if c in rows else len(rows) + columns[c] for c in live]
            _apply_gate(tensor, kind, axes, sub, times_i)
        if kind == "H" and odd_root is not None:
            r += 1
            if r == 64:
                tensor *= 2.0**-32
                r = 0
    if odd_root is not None:
        scale = 2.0 ** -(r // 2) * (odd_root if r % 2 else 1.0)
        if scale != 1.0:
            tensor *= scale
    return tensor


def _parse_bits(bits: str, length: int, what: str) -> int:
    if len(bits) != length:
        raise PreconditionError(
            f"{what} must be {length} bit(s), got {len(bits)} ({bits!r})"
        )
    if bits and set(bits) - {"0", "1"}:
        raise PreconditionError(f"{what} must be a 0/1 string, got {bits!r}")
    return int(bits, 2) if bits else 0


def basis_index(circuit: VerifierCircuit, x_val: int, y: int | np.ndarray) -> int | np.ndarray:
    """Index of |0^a x y>: ancillas at 0, input value x_val, witness y (an int or an array)."""
    return (x_val << circuit.num_witness) | y


def _bits_of(index: int, qubits, num_qubits: int) -> dict[int, int]:
    return {k: (index >> (num_qubits - 1 - k)) & 1 for k in qubits}


def simulate(circuit: VerifierCircuit, basis: int) -> np.ndarray:
    """Run the circuit on a computational basis state, returning the state.

    `basis` is the state's index, with qubit 0 its most significant bit.
    Every qubit starts as a constant bit, and only the qubits that `_track`
    puts into superposition become tensor axes, so the tensor scattered
    into the 2**Q state at the end gives the same bits as a full
    statevector run.
    """
    q = circuit.num_qubits
    if q > SIM_QUBIT_CAP:
        raise CapExceeded(f"{q} qubits exceeds the {SIM_QUBIT_CAP}-qubit simulation cap")
    if not 0 <= basis < 1 << q:
        raise PreconditionError(f"basis index {basis} outside the {q}-qubit range")
    bits = _bits_of(basis, range(q), q)
    steps, rows, _ = _track(circuit.gates, bits)
    tensor = _run_steps(np.ones(1, np.complex128), steps)
    norm = float(np.linalg.norm(tensor))
    if abs(norm - 1.0) > NORM_TOL:
        raise InvariantViolation(f"statevector norm drifted to {norm}")
    state = np.zeros((2,) * q, dtype=np.complex128)
    state[tuple(slice(None) if k in rows else bits[k] for k in range(q))] = tensor[..., 0]
    return state.reshape(-1)


@dataclass(frozen=True)
class WitnessEmbed:
    """The circuit's output on every |0^a x y>, over only the rows it can reach.

    `matrix` is (2**s, 2**w): row r gives the s superposed qubits `rows`
    (ascending, qubit 0 always first) the bits of r, and column j holds
    the output from witness y = order[j].  Every other qubit is classical
    in every column: an ancilla or input qubit has its bit in `constant`
    (a basis index with the other qubits at 0), and a witness qubit of
    `diagonal` has the bit j gives it, the k = len(diagonal) leading bits
    of j in that order.  So every amplitude left out is an exact zero, and
    columns whose leading k bits differ are orthogonal.
    """

    rows: tuple[int, ...]
    diagonal: tuple[int, ...]
    constant: int
    order: np.ndarray
    matrix: np.ndarray | None = None


def _witness_blocks(
    circuit: VerifierCircuit,
    x: str,
    tail=(),
    dtype=np.complex128,
    sub=np.subtract,
    times_i=_times_i,
    odd_root=_INV_SQRT2,
) -> tuple[WitnessEmbed, object]:
    """Check the dense cap and x now; return the layout and a generator of (index, block).

    Each block is (2**s,) + (2,)*b + tail: the circuit run by `_run_steps`
    on 2**b columns of the compact layout, each starting with its 1 in the
    first tail cell.  `index` places it in the layout's matrix viewed as
    (2**s,) + (2,)*w: the block's column axes are b of the w, in layout
    order, and the other w - b diagonal qubits are bits it shares, never
    targets of a column permutation, so the permutations stay inside a
    block.  Blocks are about _BLOCK_BYTES, and more where permutations
    need more column axes: they bound the memory a run holds beyond the
    array it fills, not its speed.  Columns never interact, so blocking
    changes no bit.
    """
    q, w = circuit.num_qubits, circuit.num_witness
    check_dense(q)
    x_val = _parse_bits(x, circuit.num_input, "input bits")
    bits = _bits_of(basis_index(circuit, x_val, 0), range(q - w), q)
    steps, rows, permutations = _track(circuit.gates, bits, range(q - w, q))
    grow_output = bits.pop(0, None)  # qubit 0 leads every block: its rows at 1 are the bottom half
    diagonal = tuple(t for t in range(q - w, q) if t not in rows)
    stack = diagonal + tuple(t for t in rows if t >= q - w)  # the column axes in layout order
    moved = {qubits[-1] for qubits in permutations}
    compute = [t for t in stack if t not in moved] + [t for t in stack if t in moved]
    s = len(rows) + (grow_output is not None)
    column_bytes = np.dtype(dtype).itemsize * math.prod(tail) << s
    b = min(w, max(len(moved), (_BLOCK_BYTES // column_bytes).bit_length() - 1))
    fixed, inner = compute[: w - b], compute[w - b :]

    labels = np.arange(1 << w).reshape((2,) * w).transpose([t - (q - w) for t in stack])
    labels = labels.reshape((2,) * w + (1,))  # its own array; the 1 keeps every index a view
    for qubits in permutations:
        _apply_gate(labels, "TOF", [stack.index(t) for t in qubits])
    layout = WitnessEmbed(
        rows=(0,) * (grow_output is not None) + tuple(rows),
        diagonal=diagonal,
        constant=sum(bit << (q - 1 - k) for k, bit in bits.items()),
        order=labels.reshape(-1),
    )
    columns = {t: i for i, t in enumerate(inner)}
    in_layout = [0] + [1 + columns[t] for t in stack if t in columns]  # block axes, layout order
    in_layout += range(1 + b, 1 + b + len(tail))

    def blocks():
        for v in range(1 << (w - b)):
            shared = {t: (v >> (w - b - 1 - i)) & 1 for i, t in enumerate(fixed)}
            tensor = np.zeros((1 << b, 1) + tail, dtype)  # the 1 keeps every index a view
            tensor.reshape(1 << b, -1)[:, 0] = 1
            tensor = _run_steps(
                tensor.reshape((2,) * b + (1,) + tail),
                steps,
                columns,
                shared,
                sub,
                times_i,
                odd_root,
            )
            if grow_output is not None:
                tensor = _grow(tensor, 0, grow_output, 0)
            index = (slice(None),) + tuple(shared.get(t, slice(None)) for t in stack)
            yield index, tensor.reshape((1 << s,) + (2,) * b + tail).transpose(in_layout)

    return layout, blocks()


def embedded_witness_matrix(
    circuit: VerifierCircuit, x: str, *, odd_h_root: bool = True
) -> WitnessEmbed:
    """The compact embed: the circuit's output on every |0^a x y>, as a WitnessEmbed.

    With odd_h_root=False the 1/sqrt(2) that an odd H count ends on is
    left out, so every entry is a Gaussian integer over a power of two and
    the matrix is sqrt(2) times the normalized one.
    """
    layout, blocks = _witness_blocks(circuit, x, odd_root=_INV_SQRT2 if odd_h_root else 1.0)
    mat = np.empty((1 << len(layout.rows),) + (2,) * circuit.num_witness, np.complex128)
    for index, block in blocks:
        mat[index] = block
        del block  # freed before the next block grows
    return replace(layout, matrix=mat.reshape(mat.shape[0], -1))
