"""Checks on every record the CLI returns, and a self-test of those checks.

A call fails when it exits nonzero, when its stdout is not exactly one
JSON record, when a certified field (`satisfied`, `within_bound`,
`in_interval`) is not true, when a field contradicts the input or another
field of the same record, or when an exact quantity disagrees with the
`exact-count` trace of the same circuit.  The self-test corrupts real
records from the first pass and requires every corruption to be flagged.
"""

from __future__ import annotations

import copy
import json
import math

from circgen import Shape
from workloads import Call

CERTIFIED = {
    "svt-amplify": "satisfied",
    "reduce-interval": "within_bound",
    "reduce-pad": "in_interval",
}
# the field of each op that must equal the exact-count trace (normalized
# by 2**w for the decider)
CROSS_CHECKED = {
    "reduce-interval": "exact_trace",
    "path-sum": "trace",
    "decide-avg-accept": "exact_normalized_trace",
}
EXACT_TOL = 1e-9


class SelfTestError(RuntimeError):
    """A corrupted record passed the checks: the checker itself is broken."""


def _arg(call: Call, flag: str) -> str | None:
    argv = call.argv
    return argv[argv.index(flag) + 1] if flag in argv else None


def parse(stdout: bytes) -> tuple[dict | None, str | None]:
    """The one JSON record on stdout, or the reason there is none."""
    try:
        lines = stdout.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return None, "stdout is not UTF-8"
    if len(lines) != 1:
        return None, f"expected one stdout line, got {len(lines)}"
    try:
        record = json.loads(lines[0])
    except ValueError as exc:
        return None, f"stdout does not parse as JSON: {exc}"
    if not isinstance(record, dict):
        return None, "record is not a JSON object"
    return record, None


def check_record(call: Call, record: dict, inputs: dict[str, tuple[Shape, str]]) -> list[str]:
    """Problems with one parsed record, judged against its call and input."""
    problems = []

    def require(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    op = call.op
    require(record.get("schema_version") == 1, "schema_version is not 1")
    require(record.get("op") == op, f"op is {record.get('op')!r}, expected {op!r}")
    field = CERTIFIED.get(op)
    if field is not None:
        require(record.get(field) is True, f"certified field {field} is not true")
    circuit = call.argv[1] if len(call.argv) > 1 and call.argv[1] in inputs else None
    if circuit is None:
        shape = None
    else:
        shape, digest = inputs[circuit]
        config = record.get("config")
        require(
            isinstance(config, dict) and config.get("circuit") == circuit,
            "config does not echo the circuit path",
        )
        require(record.get("circuit_hash") == digest, "circuit_hash differs from the input")
    try:
        _check_fields(call, record, shape, require)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed record: {exc!r}")
    return problems


def _check_fields(call: Call, rec: dict, shape: Shape | None, require) -> None:
    op = call.op
    dim = 1 << shape.witness if shape is not None else None
    if op == "exact-count":
        require(0 <= rec["N_geq_c"] <= rec["N_geq_s"] <= dim, "counts out of order")
        require(-EXACT_TOL <= rec["trace"] <= dim + EXACT_TOL, "trace outside [0, 2**w]")
        normalized = min(1.0, max(0.0, rec["trace"] / dim))
        require(abs(rec["trace_normalized"] - normalized) <= 1e-12, "trace_normalized != trace / 2**w")
    elif op == "estimate-trace":
        m = int(_arg(call, "--M"))
        require(rec["M"] == m and rec["seed"] == int(_arg(call, "--seed")), "M or seed not echoed")
        require(rec["normalization"] == dim, "normalization != 2**w")
        hits = rec["value"] * m / dim
        require(hits == round(hits) and 0 <= hits <= m, "value is not 2**w * hits / M")
    elif op == "path-sum" and rec["mode"] == "exact":
        require(rec["N_star"] == shape.path_bits and rec["h"] == shape.h, "N* or h wrong")
        exact = (rec["g"] - rec["f"]) / 2 ** rec["h"]
        require(abs(rec["trace"] - exact) <= EXACT_TOL, "trace != (g - f) / 2**h")
    elif op == "path-sum":
        require(rec["N_star"] == shape.path_bits and rec["h"] == shape.h, "N* or h wrong")
        require(rec["samples"] == int(_arg(call, "--samples")), "samples not echoed")
        require(abs(rec["value"]) <= rec["normalization"], "|value| exceeds normalization")
    elif op == "rect-poly":
        degree = rec["degree"]
        coefficients = rec["coefficients"]
        require(rec["violations"] == 0, "grid violations")
        require(degree <= rec["degree_budget"], "degree over budget")
        require(len(coefficients) == degree + 1, "coefficient count != degree + 1")
        require(all(c == 0.0 for c in coefficients[1::2]), "odd coefficients nonzero")
        require(rec["max_abs"] <= 1.0, "max |P| above 1")
    elif op == "svt-amplify":
        sigma = rec["singular_values"]
        require(len(sigma) == dim, "singular value count != 2**w")
        require(all(a >= b for a, b in zip(sigma, sigma[1:])), "singular values not descending")
        require(rec["N_geq_c"] <= rec["N_geq_s"], "counts out of order")
        require(
            rec["lower"] - EXACT_TOL <= rec["trace_amplified"] <= rec["upper"] + EXACT_TOL,
            "amplified trace outside the sandwich",
        )
    elif op == "reduce-interval":
        m = int(_arg(call, "--M"))
        n_hat = rec["n_hat"]
        require(len(n_hat) == m + 1 and n_hat[0] == 0 and n_hat[-1] == dim, "n_hat frame wrong")
        require(
            abs(rec["abs_error"] - abs(rec["estimate"] - rec["exact_trace"])) <= EXACT_TOL,
            "abs_error != |estimate - exact_trace|",
        )
        require(rec["abs_error"] <= rec["error_bound"] + EXACT_TOL, "error above its bound")
    elif op == "reduce-pad":
        require(rec["N_geq_c"] <= rec["count"] <= rec["N_geq_s"], "count outside the interval")
    elif op == "decide-avg-accept":
        c, s = rec["config"]["c"], rec["config"]["s"]
        require(0.0 <= rec["mean"] <= 1.0, "mean outside [0, 1]")
        expected = "YES" if rec["mean"] >= (c + s) / 2.0 else "NO"
        require(rec["answer"] == expected, "answer contradicts mean")
        require(rec["samples"] == math.ceil(3.0 / (rec["epsilon"] * rec["epsilon"])) + 1, "sample count wrong")
    elif op == "validate-dqc1":
        require(
            (rec["num_ancilla"], rec["num_input"], rec["num_witness"])
            == (shape.ancilla, 0, shape.witness),
            "register sizes wrong",
        )
        require(rec["valid"] == (shape.ancilla <= rec["ancilla_bound"]), "valid flag wrong")


def cross_check(records: dict[str, dict], inputs: dict[str, tuple[Shape, str]]) -> dict[str, list[str]]:
    """Exact quantities that must match the exact-count trace of their circuit."""
    traces = {
        rec.get("circuit_hash"): rec.get("trace")
        for rec in records.values()
        if rec.get("op") == "exact-count"
    }
    dims = {digest: 1 << shape.witness for shape, digest in inputs.values()}
    problems: dict[str, list[str]] = {}
    for label, rec in records.items():
        ref = traces.get(rec.get("circuit_hash"))
        if ref is None:
            continue
        key = CROSS_CHECKED.get(rec.get("op"))
        value = rec.get(key)
        if value is None or (rec["op"] == "path-sum" and rec.get("mode") != "exact"):
            continue
        if key == "exact_normalized_trace" and isinstance(value, (int, float)):
            value *= dims.get(rec["circuit_hash"], math.nan)
        if not isinstance(value, (int, float)) or abs(value - ref) > EXACT_TOL:
            problems.setdefault(label, []).append(
                f"exact trace {value!r} disagrees with exact-count trace {ref!r}"
            )
    return problems


def self_test(
    calls: list[Call],
    outcomes: list[tuple[int, bytes]],
    inputs: dict[str, tuple[Shape, str]],
) -> None:
    """Corrupt real records and require every corruption to be flagged."""

    def flagged(call: Call, returncode: int, stdout: bytes) -> bool:
        if returncode != 0:
            return True
        record, reason = parse(stdout)
        return reason is not None or bool(check_record(call, record, inputs))

    records = {}
    for call, (returncode, stdout) in zip(calls, outcomes):
        if flagged(call, returncode, stdout):
            raise SelfTestError(f"{call.label}: the uncorrupted record is flagged")
        record = json.loads(stdout)
        records[call.label] = record
        corruptions = [
            ("exit code 3", 3, stdout),
            ("empty stdout", 0, b""),
            ("truncated record", 0, stdout.rstrip()[:-1]),
            ("two records", 0, stdout + stdout),
        ]
        bad = dict(record, schema_version=2)
        corruptions.append(("schema_version", 0, json.dumps(bad).encode()))
        if "circuit_hash" in record:
            bad = dict(record, circuit_hash="0" * 64)
            corruptions.append(("circuit_hash", 0, json.dumps(bad).encode()))
        if call.op in CERTIFIED:
            bad = dict(record, **{CERTIFIED[call.op]: False})
            corruptions.append(("certified field", 0, json.dumps(bad).encode()))
        for what, returncode, corrupted in corruptions:
            if not flagged(call, returncode, corrupted):
                raise SelfTestError(f"{call.label}: corruption '{what}' was not flagged")
    if cross_check(records, inputs):
        raise SelfTestError("the uncorrupted records fail the cross-check")
    referenced = {r["circuit_hash"] for r in records.values() if r["op"] == "exact-count"}
    for label, record in records.items():
        key = CROSS_CHECKED.get(record["op"])
        if record.get(key) is None or record.get("circuit_hash") not in referenced:
            continue
        bad = copy.deepcopy(records)
        bad[label][key] += 1e-6
        if label not in cross_check(bad, inputs):
            raise SelfTestError(f"{label}: a 1e-6 error in {key} was not flagged")
