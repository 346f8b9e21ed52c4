"""Spans around the program's public functions, recorded from outside it.

The traced entry script installs a Tracer after importing the program and
before calling `qcount.cli.run`.  Every target below is rebound in every
`qcount` module namespace that holds it (many are imported by name into
other modules), so a call reaches the wrapper whichever binding it goes
through.  Spans stay in memory and are written once, when the call ends.
The parent side (`self_times`) imports nothing from the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name); "Class.member" wraps a method or property.
TARGETS = (
    ("qcount.cli", "run", "cli.run"),
    ("qcount.circuit", "load_circuit", "circuit.load"),
    ("qcount.circuit", "embedded_witness_matrix", "circuit.embed"),
    ("qcount.circuit", "simulate", "circuit.simulate"),
    ("qcount.spectral", "build_acceptance_operator", "spectral.operator"),
    ("qcount.spectral", "AcceptanceOperator.eigenvalues", "spectral.eig"),
    ("qcount.svt", "rect_poly", "svt.rect_poly"),
    ("qcount.svt", "build_block_encoding", "svt.block_encoding"),
    ("qcount.svt", "BlockEncoding.svd", "svt.svd"),
    ("qcount.svt", "apply_svt", "svt.apply"),
    ("qcount.estimators", "quantum_trace_estimator", "estimators.trace"),
    ("qcount.estimators", "median_amplify", "estimators.median"),
    ("qcount.estimators", "avg_accept_decider", "estimators.decider"),
    ("qcount.pathsum", "path_sum_exact", "pathsum.exact"),
    ("qcount.pathsum", "path_sum_estimator", "pathsum.sampled"),
    ("qcount.reductions", "MiscountingOracle.query", "reductions.query"),
    ("qcount.reductions", "interval_partition_trace", "reductions.recover"),
    ("qcount.reductions", "padding_reduction", "reductions.pad"),
)

# Lazy properties compute once and then return a cached value; only the
# computing access is a span.  A missing attribute makes every access one.
_CACHE_ATTRS = {"spectral.eig": "_eigenvalues", "svt.svd": "_svd"}


def _embed_bytes(args, kwargs, result) -> int:
    # computed, not measured: each gate reads and writes the whole
    # (2**Q, 2**w) complex128 array once
    circuit = args[0] if args else kwargs["circuit"]
    return circuit.gate_count * 2 * 16 * (1 << (circuit.num_qubits + circuit.num_witness))


_COUNTS = {
    "circuit.embed": _embed_bytes,
    "svt.rect_poly": lambda args, kwargs, result: result.degree,
    "estimators.trace": lambda args, kwargs, result: result.samples,
    "estimators.median": lambda args, kwargs, result: result.samples,
    "estimators.decider": lambda args, kwargs, result: result.samples,
    "pathsum.exact": lambda args, kwargs, result: 1 << result.n_star,
    "pathsum.sampled": lambda args, kwargs, result: result.samples,
}


def _program_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "qcount" or name.startswith("qcount."))
    ]


class Tracer:
    """Span recorder for one CLI call: (name, start, end, parent, count)."""

    def __init__(self, call_id: int):
        self.call_id = call_id
        self.spans: list[list | None] = []
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = _COUNTS.get(name)
        cache_attr = _CACHE_ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cache_attr is not None and getattr(args[0], cache_attr, None) is not None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, 0]
            if count is not None:
                spans[index][4] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in every program namespace that holds it."""
        modules = _program_modules()
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[member]
                if isinstance(original, property):
                    self._originals[name] = original.fget
                    setattr(cls, member, property(self._wrap(name, original.fget)))
                else:
                    self._originals[name] = original
                    setattr(cls, member, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            self._originals[name] = original
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def unwrapped(self) -> list[str]:
        """Places in program modules that still reference an original target."""
        originals = {id(fn): name for name, fn in self._originals.items()}
        found = []

        def visit(where: str, value) -> None:
            if isinstance(value, property):
                value = value.fget
            if id(value) in originals:
                found.append(f"{where} ({originals[id(value)]})")

        for mod in _program_modules():
            for key, value in vars(mod).items():
                where = f"{mod.__name__}.{key}"
                visit(where, value)
                if isinstance(value, dict):
                    for k, v in value.items():
                        visit(f"{where}[{k!r}]", v)
                elif isinstance(value, (list, tuple)):
                    for i, v in enumerate(value):
                        visit(f"{where}[{i}]", v)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for k, v in vars(value).items():
                        visit(f"{where}.{k}", v)
        return found

    def dump(self, path: str, import_s: float) -> None:
        record = {
            "call_id": self.call_id,
            "import_s": import_s,
            "spans": self.spans,
            "unwrapped": self.unwrapped(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded, so children of one span never overlap and
    their durations add up to the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]
