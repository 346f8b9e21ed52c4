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

`_apply_gate` is the one gate kernel.  `simulate` runs it on one basis
state; `_witness_blocks` runs it on every |0^a x y>, a column block at a
time, for both the complex embed and the path sum's walk counts.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import re
from dataclasses import dataclass
from functools import cached_property, partial

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
_BLOCK_BYTES = 1 << 20  # bytes of one gate-kernel column block, to stay in cache

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


def _apply_dense(view: np.ndarray, gate: Gate) -> np.ndarray:
    _apply_gate(view, gate.kind, gate.qubits)
    return view


def _run_gates(
    view: np.ndarray, gates: tuple[Gate, ...], apply=_apply_dense, odd_root=_INV_SQRT2
) -> np.ndarray:
    # `apply(view, gate)` runs one gate and returns the array to go on with.
    # H is [[1, 1], [1, -1]]: every 64 H scale by exactly 2**-32, the r left
    # by 2**-(r // 2) at the end, times `odd_root` (1/sqrt(2)) for odd r, so
    # an even-h embedding is exactly Gaussian integers over 2**(h/2).
    r = 0  # unnormalized H gates since the last rescale
    for gate in gates:
        view = apply(view, gate)
        r += gate.kind == "H"
        if r == 64:
            view *= 2.0**-32
            r = 0
    scale = 2.0 ** -(r // 2) * (odd_root if r % 2 else 1.0)
    if scale != 1.0:
        view *= scale
    return view


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


def simulate(circuit: VerifierCircuit, basis: int) -> np.ndarray:
    """Run the circuit on a computational basis state, returning the state.

    `basis` is the state's index, with qubit 0 its most significant bit.
    Only the qubits in superposition are tensor axes; every other qubit
    is a classical bit.  An H puts its qubit into superposition, and so
    does a TOF with a control in superposition for its target.  S on a
    classical 1 multiplies the tensor by i, a TOF with a classical
    control at 0 does nothing, and one whose classical controls are all
    at 1 flips a classical target.  A qubit enters the tensor as a new
    axis holding zeros opposite its bit, and the gate that put it there
    then runs on the shared kernel, as do the gates on superposed
    qubits.  So every amplitude meets the same float operations as in a
    full statevector run, and the tensor scattered into the 2**Q state
    at the end gives the same bits.
    """
    q = circuit.num_qubits
    if q > SIM_QUBIT_CAP:
        raise CapExceeded(f"{q} qubits exceeds the {SIM_QUBIT_CAP}-qubit simulation cap")
    if not 0 <= basis < 1 << q:
        raise PreconditionError(f"basis index {basis} outside the {q}-qubit range")
    bits = [(basis >> (q - 1 - k)) & 1 for k in range(q)]
    axes: list[int] = []  # the qubits in superposition, ascending: the leading tensor axes

    def apply(tensor: np.ndarray, gate: Gate) -> np.ndarray:
        *controls, target = gate.qubits
        if any(c not in axes and not bits[c] for c in controls):
            return tensor  # a classical control at 0
        live = [c for c in controls if c in axes]
        if target not in axes:
            if gate.kind == "S":
                if bits[target]:
                    _times_i(tensor)
                return tensor
            if gate.kind == "TOF" and not live:
                bits[target] ^= 1
                return tensor
            pos = bisect.bisect(axes, target)
            axes.insert(pos, target)
            grown = np.zeros(tensor.shape[:pos] + (2,) + tensor.shape[pos:], np.complex128)
            grown[(slice(None),) * pos + (bits[target],)] = tensor
            tensor = grown
        _apply_gate(tensor, gate.kind, [axes.index(c) for c in (*live, target)])
        return tensor

    tensor = _run_gates(np.ones(1, np.complex128), circuit.gates, apply)
    norm = float(np.linalg.norm(tensor))
    if abs(norm - 1.0) > NORM_TOL:
        raise InvariantViolation(f"statevector norm drifted to {norm}")
    state = np.zeros((2,) * q, dtype=np.complex128)
    state[tuple(slice(None) if k in axes else bits[k] for k in range(q))] = tensor[..., 0]
    return state.reshape(-1)


def _witness_blocks(
    circuit: VerifierCircuit, x: str, tail=(), dtype=np.complex128, run=_run_gates
):
    """Check the dense cap and x now; return a generator of (start, block).

    Column j of the (2**Q, m) + tail block starts as |0^a x y>, y = start
    + j, with its 1 in the first tail cell; `run(view, gates)` runs the
    circuit on the (2,)*Q + (m,) + tail view.  Blocks of about _BLOCK_BYTES
    stay in cache and share one buffer, so each is valid until the next.
    Columns never interact, so blocking changes no bit.
    """
    q = circuit.num_qubits
    check_dense(q)
    x_val = _parse_bits(x, circuit.num_input, "input bits")
    rows, dim_w = 1 << q, 1 << circuit.num_witness
    column_bytes = rows * np.dtype(dtype).itemsize * math.prod(tail)
    width = min(dim_w, max(1, _BLOCK_BYTES // column_bytes))

    def blocks():
        buf = np.empty((rows * width,) + tail, dtype)
        for start in range(0, dim_w, width):
            m = min(width, dim_w - start)
            block = buf[: rows * m].reshape((rows, m) + tail)
            block.fill(0)
            cols = np.arange(m)
            block.reshape(rows, m, -1)[basis_index(circuit, x_val, start + cols), cols, 0] = 1
            run(block.reshape((2,) * q + block.shape[1:]), circuit.gates)
            yield start, block

    return blocks()


def embedded_witness_matrix(
    circuit: VerifierCircuit, x: str, *, odd_h_root: bool = True
) -> np.ndarray:
    """Circuit output on every embedded witness state, as a (2**Q, 2**w) array.

    Column y is the statevector the circuit produces from ancillas at
    |0...0>, input register at |x>, witness register at basis state |y>.
    With odd_h_root=False the 1/sqrt(2) that an odd H count ends on is
    left out, so every entry is a Gaussian integer over a power of two and
    the matrix is sqrt(2) times the normalized one.
    """
    run = _run_gates if odd_h_root else partial(_run_gates, odd_root=1.0)
    blocks = _witness_blocks(circuit, x, run=run)  # checks the cap before the output is allocated
    mat = np.empty((1 << circuit.num_qubits, 1 << circuit.num_witness), np.complex128)
    for start, block in blocks:
        mat[:, start : start + block.shape[1]] = block
    return mat
