"""Command line front end: one JSON line per invocation.

Every subcommand prints a single JSON object carrying the operation
name, a full echo of the parsed configuration, the result fields, and a
schema_version, so runs can be diffed byte for byte.  Exit codes: 0 on
success, 1 for an unknown subcommand, 2 for file or precondition
problems, 3 for internal invariant violations.  Stochastic subcommands
require --seed; identical seeds give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import pathsum, reductions, svt
from .circuit import _parse_bits, circuit_hash, load_circuit
from .errors import InvariantViolation, PreconditionError
from .estimators import avg_accept_decider, quantum_trace_estimator
from .spectral import (
    SpectralCount,
    build_acceptance_operator,
    dqc1_ancilla_bound,
    trace_normalized,
    validate_dqc1,
)

SCHEMA_VERSION = 1


def _jsonable(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit(op: str, config: dict, result: dict) -> None:
    record = {"schema_version": SCHEMA_VERSION, "op": op, "config": _jsonable(config)}
    record.update(_jsonable(result))
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _parser(name: str) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(prog=f"qcount {name}")


def _add_circuit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("circuit", help="path to a qcv circuit file")
    p.add_argument("--x", default="", help="input register bits (default empty)")


def _cmd_exact_count(argv: list[str]) -> int:
    p = _parser("exact-count")
    _add_circuit_args(p)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    args = p.parse_args(argv)
    circ = load_circuit(args.circuit)
    op = build_acceptance_operator(circ, args.x)
    count = SpectralCount.from_operator(op, args.c, args.s)
    _emit(
        "exact-count",
        vars(args),
        {
            "circuit_hash": circuit_hash(circ),
            "N_geq_c": count.n_geq_c,
            "N_geq_s": count.n_geq_s,
            "n_interval": count.n_interval,
            "trace": float(np.real(np.trace(op.matrix))),
            "trace_normalized": trace_normalized(op),
        },
    )
    return 0


def _cmd_estimate_trace(argv: list[str]) -> int:
    p = _parser("estimate-trace")
    _add_circuit_args(p)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--eps", type=float, default=None)
    args = p.parse_args(argv)
    circ = load_circuit(args.circuit)
    est = quantum_trace_estimator(circ, args.x, args.M, args.seed, epsilon=args.eps)
    _emit(
        "estimate-trace",
        vars(args),
        {
            "circuit_hash": circuit_hash(circ),
            "x": args.x,
            "M": est.samples,
            "epsilon": est.epsilon,
            "delta": est.delta,
            "value": est.value,
            "normalization": est.normalization,
            "seed": est.seed,
        },
    )
    return 0


def _cmd_path_sum(argv: list[str]) -> int:
    p = _parser("path-sum")
    _add_circuit_args(p)
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    args = p.parse_args(argv)
    circ = load_circuit(args.circuit)
    if args.mode == "exact":
        r = pathsum.path_sum_exact(circ, args.x)
        _emit(
            "path-sum",
            vars(args),
            {
                "circuit_hash": circuit_hash(circ),
                "mode": "exact",
                "g": r.g,
                "f": r.f,
                "h": r.h,
                "N_star": r.n_star,
                "trace": r.trace,
            },
        )
        return 0
    if args.seed is None or args.samples is None:
        p.error("--mode sampled requires --samples and --seed")
    est = pathsum.path_sum_estimator(
        circ, args.x, args.samples, args.seed, epsilon=args.eps
    )
    _emit(
        "path-sum",
        vars(args),
        {
            "circuit_hash": circuit_hash(circ),
            "mode": "sampled",
            "h": circ.h_count,
            "N_star": pathsum.free_path_bits(circ),
            "value": est.value,
            "normalization": est.normalization,
            "epsilon": est.epsilon,
            "delta": est.delta,
            "samples": est.samples,
            "seed": est.seed,
        },
    )
    return 0


def _cmd_rect_poly(argv: list[str]) -> int:
    p = _parser("rect-poly")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--width", type=float, required=True, help="half-width delta")
    p.add_argument("--eps", type=float, required=True)
    args = p.parse_args(argv)
    poly = svt.rect_poly(args.t, args.width, args.eps)
    report = svt.grid_report(poly)
    _emit(
        "rect-poly",
        vars(args),
        {
            "degree": poly.degree,
            "degree_budget": svt.degree_budget(args.width, args.eps),
            "coefficients": poly.coefficients,
            **report,
        },
    )
    return 0


def _cmd_svt_amplify(argv: list[str]) -> int:
    p = _parser("svt-amplify")
    _add_circuit_args(p)
    p.add_argument("--c", type=float, required=True, help="singular-value threshold")
    p.add_argument("--s", type=float, required=True, help="singular-value threshold")
    p.add_argument("--eps", type=float, required=True)
    args = p.parse_args(argv)
    circ = load_circuit(args.circuit)
    encoding = svt.build_block_encoding(circ, args.x)
    poly, amplified = svt.amplified_acceptance(encoding, args.c, args.s, args.eps)
    bounds = svt.sandwich_bounds(encoding, args.c, args.s, args.eps, amplified)
    _emit(
        "svt-amplify",
        vars(args),
        {
            "circuit_hash": circuit_hash(circ),
            "poly_degree": poly.degree,
            "singular_values": encoding.singular_values,
            "amplified_eigenvalues": amplified.eigenvalues,
            "trace_amplified": bounds.trace_amplified,
            "lower": bounds.lower,
            "upper": bounds.upper,
            "N_geq_c": bounds.n_geq_c,
            "N_geq_s": bounds.n_geq_s,
            "sigma_in_gap": bounds.sigma_in_gap,
            "satisfied": bounds.satisfied,
        },
    )
    return 0


def _cmd_reduce_interval(argv: list[str]) -> int:
    p = _parser("reduce-interval")
    _add_circuit_args(p)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--delta-strategy", choices=reductions.DELTA_STRATEGIES, default="zero")
    p.add_argument("--eps-strategy", choices=reductions.EPS_STRATEGIES, default="zero")
    p.add_argument("--mode", choices=("exact", "estimator"), default="exact")
    p.add_argument("--seed", type=int, default=None)
    args = p.parse_args(argv)
    stochastic = (
        args.mode == "estimator"
        or args.delta_strategy == "random"
        or args.eps_strategy == "random"
    )
    if stochastic and args.seed is None:
        p.error("--seed is required for random strategies or estimator backing")
    seed = args.seed if args.seed is not None else 0
    circ = load_circuit(args.circuit)
    reductions.IntervalPartition(args.M)  # rejects M < 2 before eps_bound divides by it
    oracle = reductions.MiscountingOracle(
        circ,
        args.x,
        eps_bound=1.0 / args.M,
        delta_strategy=args.delta_strategy,
        eps_strategy=args.eps_strategy,
        seed=seed,
        backing=args.mode,
    )
    r = reductions.interval_partition_trace(oracle, args.M)
    _emit(
        "reduce-interval",
        vars(args) | {"seed": seed},
        {
            "circuit_hash": circuit_hash(circ),
            "estimate": r.estimate,
            "error_bound": r.error_bound,
            "exact_trace": r.exact_trace,
            "abs_error": r.abs_error,
            "within_bound": bool(r.abs_error <= r.error_bound + 1e-9),
            "n_hat": r.n_hat,
        },
    )
    return 0


def _cmd_reduce_pad(argv: list[str]) -> int:
    p = _parser("reduce-pad")
    _add_circuit_args(p)
    p.add_argument("--u-exponent", type=float, required=True, dest="u_exponent")
    p.add_argument("--c", type=float, default=2.0 / 3.0, help="counting threshold")
    p.add_argument("--s", type=float, default=1.0 / 3.0, help="counting threshold")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta-strategy", choices=reductions.DELTA_STRATEGIES, default="max")
    p.add_argument(
        "--eps-strategy", choices=reductions.EPS_STRATEGIES, default="adversarial"
    )
    p.add_argument("--seed", type=int, default=None)
    args = p.parse_args(argv)
    stochastic = args.delta_strategy == "random" or args.eps_strategy == "random"
    if stochastic and args.seed is None:
        p.error("--seed is required for random strategies")
    seed = args.seed if args.seed is not None else 0
    circ = load_circuit(args.circuit)
    r = reductions.padding_reduction(
        circ,
        args.x,
        args.u_exponent,
        c_threshold=args.c,
        s_threshold=args.s,
        eps=args.eps,
        delta_strategy=args.delta_strategy,
        eps_strategy=args.eps_strategy,
        seed=seed,
    )
    _emit(
        "reduce-pad",
        vars(args) | {"seed": seed},
        {
            "circuit_hash": circuit_hash(circ),
            "count": r.count,
            "pad_qubits": r.pad_qubits,
            "raw_answer": r.raw_answer,
            "normalization": r.normalization,
            "N_geq_c": r.n_geq_c,
            "N_geq_s": r.n_geq_s,
            "in_interval": bool(r.n_geq_c <= r.count <= r.n_geq_s),
            "rounding_margin": r.rounding_margin,
        },
    )
    return 0


def _cmd_decide_avg_accept(argv: list[str]) -> int:
    p = _parser("decide-avg-accept")
    _add_circuit_args(p)
    p.add_argument("--c", type=float, default=2.0 / 3.0)
    p.add_argument("--s", type=float, default=1.0 / 3.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--eps", type=float, default=None)
    args = p.parse_args(argv)
    circ = load_circuit(args.circuit)
    r = avg_accept_decider(circ, args.x, args.c, args.s, args.seed, epsilon=args.eps)
    _emit(
        "decide-avg-accept",
        vars(args),
        {
            "circuit_hash": circuit_hash(circ),
            "answer": r.answer,
            "mean": r.mean,
            "samples": r.samples,
            "epsilon": r.epsilon,
            "promise_violated": r.promise_violated,
            "exact_normalized_trace": r.exact_normalized_trace,
        },
    )
    return 0


def _cmd_validate_dqc1(argv: list[str]) -> int:
    p = _parser("validate-dqc1")
    _add_circuit_args(p)
    args = p.parse_args(argv)
    circ = load_circuit(args.circuit)
    _parse_bits(args.x, circ.num_input, "input bits")
    _emit(
        "validate-dqc1",
        vars(args),
        {
            "circuit_hash": circuit_hash(circ),
            "valid": validate_dqc1(circ),
            "num_ancilla": circ.num_ancilla,
            "num_input": circ.num_input,
            "num_witness": circ.num_witness,
            "ancilla_bound": dqc1_ancilla_bound(circ.num_witness),
        },
    )
    return 0


_COMMANDS = {
    "exact-count": _cmd_exact_count,
    "estimate-trace": _cmd_estimate_trace,
    "path-sum": _cmd_path_sum,
    "rect-poly": _cmd_rect_poly,
    "svt-amplify": _cmd_svt_amplify,
    "reduce-interval": _cmd_reduce_interval,
    "reduce-pad": _cmd_reduce_pad,
    "decide-avg-accept": _cmd_decide_avg_accept,
    "validate-dqc1": _cmd_validate_dqc1,
}


def run(argv: list[str]) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    if not argv or argv[0] in ("-h", "--help"):
        sys.stderr.write(
            "usage: qcount <subcommand> [options]\n"
            f"subcommands: {', '.join(sorted(_COMMANDS))}\n"
        )
        return 0 if argv else 1
    name, rest = argv[0], argv[1:]
    handler = _COMMANDS.get(name)
    if handler is None:
        sys.stderr.write(f"qcount: unknown subcommand {name!r}\n")
        return 1
    try:
        return handler(rest)
    except SystemExit as exc:  # argparse --help or usage error
        return int(exc.code or 0)
    except PreconditionError as exc:
        sys.stderr.write(f"qcount {name}: {exc}\n")
        return 2
    except InvariantViolation as exc:
        sys.stderr.write(f"qcount {name}: INVARIANT VIOLATION: {exc}\n")
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
