"""Seeded verifier circuits for the benchmark, written as canonical qcv text.

The generator belongs to the benchmark and imports nothing from the
program: a circuit is fixed by its shape and the seed alone.  Each shape
fixes the exact number of H, S and TOF gates, and the H and S gates are
spread evenly over the qubits, because a gate's cost depends on its qubit
(tenfold for H on a 15-qubit statevector).  Only the gate order, the
qubits of the gates left over after whole rounds, and the TOF qubits are
drawn, so the work a circuit costs barely moves from seed to seed while
its spectrum does.  The text written is the canonical form the program
hashes (header plus one core gate per line), so the sha256 of the file is
the `circuit_hash` every record must echo.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    """Register sizes and exact gate-kind counts of one generated circuit."""

    name: str
    ancilla: int
    witness: int
    h: int
    s: int
    tof: int

    @property
    def qubits(self) -> int:
        return self.ancilla + self.witness

    @property
    def gates(self) -> int:
        return self.h + self.s + self.tof

    @property
    def path_bits(self) -> int:
        """N* = 2 T Q - (a + n + 1) free path bits, with no input register."""
        return 2 * self.gates * self.qubits - (self.ancilla + 1)


def _spread(rng: random.Random, count: int, qubits: int) -> list[int]:
    """`count` targets, every qubit used count // qubits times or once more."""
    rounds, rest = divmod(count, qubits)
    targets = list(range(qubits)) * rounds + rng.sample(range(qubits), rest)
    rng.shuffle(targets)
    return targets


def qcv_text(shape: Shape, seed: int) -> str:
    """Canonical qcv text of the circuit drawn for (shape, seed)."""
    rng = random.Random(f"{seed}/{shape.name}")
    targets = {"H": _spread(rng, shape.h, shape.qubits), "S": _spread(rng, shape.s, shape.qubits)}
    kinds = ["H"] * shape.h + ["S"] * shape.s + ["TOF"] * shape.tof
    rng.shuffle(kinds)
    lines = [f"registers: ancilla={shape.ancilla} input=0 witness={shape.witness}"]
    for kind in kinds:
        if kind == "TOF":
            qubits = rng.sample(range(shape.qubits), 3)
        else:
            qubits = [targets[kind].pop()]
        lines.append(" ".join([kind, *map(str, qubits)]))
    return "\n".join(lines) + "\n"


def circuit_hash(text: str) -> str:
    """sha256 of canonical qcv text, as the program computes it."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
