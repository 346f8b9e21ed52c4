"""Command line front end: one JSON line per invocation.

Every subcommand prints a single JSON object carrying the operation
name, a full echo of the parsed configuration, the result fields, and a
schema_version, so runs can be diffed byte for byte.  Exit codes: 0 on
success, 1 for an unknown subcommand, 2 for file or precondition
problems or a record or help that cannot be written, 3 for internal
invariant violations.  Stochastic subcommands require --seed; identical
seeds give identical bytes.  A subcommand is its flags plus a handler
(parser, args, circuit) -> result fields; one frame, _run_subcommand,
does everything else.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import pathsum, reductions, svt
from .circuit import _parse_bits, circuit_hash, load_circuit
from .errors import InvariantViolation, PreconditionError
from .estimators import avg_accept_decider, quantum_trace_estimator
from .spectral import (
    SpectralCount,
    build_acceptance_operator,
    check_promise,
    dqc1_ancilla_bound,
    trace_normalized,
    validate_dqc1,
)

SCHEMA_VERSION = 1

# name -> (handler, flags, takes a circuit); filled in by @_subcommand
_COMMANDS: dict[str, tuple] = {}


def _flag(*names, **kwargs) -> tuple:
    return names, kwargs


def _subcommand(name: str, *flags: tuple, circuit: bool = True):
    """Register the decorated handler under `name` with its own flags."""

    def register(handler):
        _COMMANDS[name] = (handler, flags, circuit)
        return handler

    return register


def _json_default(value):
    # numpy scalars (np.float64 is a float already) and arrays json cannot encode
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _run_subcommand(name: str, argv: list[str]) -> int:
    handler, flags, takes_circuit = _COMMANDS[name]
    p = argparse.ArgumentParser(prog=f"qcount {name}")
    # argparse's own print drops a failed write without a word
    p.print_help = lambda file=None: _write_record(p.format_help(), "the help")
    if takes_circuit:
        p.add_argument("circuit", help="path to a qcv circuit file")
        p.add_argument("--x", default="", help="input register bits (default empty)")
    for names, kwargs in flags:
        p.add_argument(*names, **kwargs)
    args = p.parse_args(argv)
    circ = None
    record = {}
    if takes_circuit:
        circ = load_circuit(args.circuit)
        _parse_bits(args.x, circ.num_input, "input bits")
        record["circuit_hash"] = circuit_hash(circ)
    record.update(handler(p, args, circ))
    # config last: a handler may write a defaulted value back into args
    record.update(schema_version=SCHEMA_VERSION, op=name, config=vars(args))
    _write_record(json.dumps(record, sort_keys=True, default=_json_default) + "\n")
    return 0


def _write_record(text: str, what: str = "the record") -> None:
    """Write and flush text to stdout; a stdout that cannot take it is a PreconditionError."""
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise PreconditionError(f"cannot write {what}: stdout is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # the flush at shutdown goes to devnull: whatever bytes this Python
        # keeps buffered cannot end the run with an "Exception ignored" line
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except OSError:
            pass
        raise PreconditionError(f"cannot write {what}: {exc}") from None


def _interval_fields(result) -> dict:
    """A result's fields, its n_geq_c and n_geq_s under the record's N_geq_c and N_geq_s."""
    fields = asdict(result)
    fields["N_geq_c"] = fields.pop("n_geq_c")
    fields["N_geq_s"] = fields.pop("n_geq_s")
    return fields


def _default_seed(p: argparse.ArgumentParser, args, why: str, estimator: bool = False):
    """Default --seed to 0 in args unless a random strategy or the estimator needs one."""
    if args.seed is None:
        if estimator or "random" in (args.delta_strategy, args.eps_strategy):
            p.error(f"--seed is required for {why}")
        args.seed = 0


@_subcommand(
    "exact-count",
    _flag("--c", type=float, required=True),
    _flag("--s", type=float, required=True),
)
def _exact_count(p, args, circ) -> dict:
    check_promise(args.c, args.s)  # before the embed and eigvalsh it would waste
    op = build_acceptance_operator(circ, args.x)
    count = SpectralCount.of(op.eigenvalues, args.c, args.s)
    return _interval_fields(count) | {"trace": op.trace, "trace_normalized": trace_normalized(op)}


@_subcommand(
    "estimate-trace",
    _flag("--M", type=int, required=True),
    _flag("--seed", type=int, required=True),
    _flag("--eps", type=float, default=None),
)
def _estimate_trace(p, args, circ) -> dict:
    fields = asdict(quantum_trace_estimator(circ, args.x, args.M, args.seed, epsilon=args.eps))
    return {"x": args.x, "M": fields.pop("samples"), **fields}


@_subcommand(
    "path-sum",
    _flag("--mode", choices=("exact", "sampled"), default="exact"),
    _flag("--samples", type=int, default=None),
    _flag("--seed", type=int, default=None),
    _flag("--eps", type=float, default=None),
)
def _path_sum(p, args, circ) -> dict:
    if args.mode == "exact":
        r = pathsum.path_sum_exact(circ, args.x)
        return dict(mode="exact", g=r.g, f=r.f, h=r.h, N_star=r.n_star, trace=r.trace)
    if args.seed is None or args.samples is None:
        p.error("--mode sampled requires --samples and --seed")
    est = pathsum.path_sum_estimator(circ, args.x, args.samples, args.seed, epsilon=args.eps)
    return dict(mode="sampled", h=circ.h_count, N_star=pathsum.free_path_bits(circ)) | asdict(est)


@_subcommand(
    "rect-poly",
    _flag("--t", type=float, required=True),
    _flag("--width", type=float, required=True, help="half-width delta"),
    _flag("--eps", type=float, required=True),
    circuit=False,
)
def _rect_poly(p, args, circ) -> dict:
    poly = svt.rect_poly(args.t, args.width, args.eps)
    return {"degree": poly.degree, "coefficients": poly.coefficients, **poly.report}


@_subcommand(
    "svt-amplify",
    _flag("--c", type=float, required=True, help="singular-value threshold"),
    _flag("--s", type=float, required=True, help="singular-value threshold"),
    _flag("--eps", type=float, required=True),
)
def _svt_amplify(p, args, circ) -> dict:
    op = build_acceptance_operator(circ, args.x)
    bounds = svt.sandwich_bounds(op, args.c, args.s, args.eps)
    return {
        "poly_degree": bounds.poly.degree,
        "singular_values": op.singular_values,
        "amplified_eigenvalues": np.sort(bounds.amplified)[::-1],
        "trace_amplified": bounds.trace_amplified,
        "lower": bounds.lower,
        "upper": bounds.upper,
        "N_geq_c": bounds.n_geq_c,
        "N_geq_s": bounds.n_geq_s,
        "sigma_in_gap": bounds.sigma_in_gap,
        "satisfied": bounds.satisfied,
    }


@_subcommand(
    "reduce-interval",
    _flag("--M", type=int, required=True),
    _flag("--delta-strategy", choices=reductions.DELTA_STRATEGIES, default="zero"),
    _flag("--eps-strategy", choices=reductions.EPS_STRATEGIES, default="zero"),
    _flag("--mode", choices=("exact", "estimator"), default="exact"),
    _flag("--seed", type=int, default=None),
)
def _reduce_interval(p, args, circ) -> dict:
    _default_seed(p, args, "random strategies or estimator backing", args.mode == "estimator")
    reductions.partition_intervals(args.M)  # rejects M < 2 before eps_bound divides by it
    oracle = reductions.MiscountingOracle(
        circ,
        args.x,
        eps_bound=1.0 / args.M,
        delta_strategy=args.delta_strategy,
        eps_strategy=args.eps_strategy,
        seed=args.seed,
        backing=args.mode,
    )
    r = reductions.interval_partition_trace(oracle, args.M)
    return asdict(r) | {"within_bound": r.within_bound}


@_subcommand(
    "reduce-pad",
    _flag("--u-exponent", type=float, required=True, dest="u_exponent"),
    _flag("--c", type=float, default=2.0 / 3.0, help="counting threshold"),
    _flag("--s", type=float, default=1.0 / 3.0, help="counting threshold"),
    _flag("--eps", type=float, required=True),
    _flag("--delta-strategy", choices=reductions.DELTA_STRATEGIES, default="max"),
    _flag("--eps-strategy", choices=reductions.EPS_STRATEGIES, default="adversarial"),
    _flag("--seed", type=int, default=None),
)
def _reduce_pad(p, args, circ) -> dict:
    _default_seed(p, args, "random strategies")
    r = reductions.padding_reduction(
        circ,
        args.x,
        args.u_exponent,
        c=args.c,
        s=args.s,
        eps=args.eps,
        delta_strategy=args.delta_strategy,
        eps_strategy=args.eps_strategy,
        seed=args.seed,
    )
    return _interval_fields(r) | {"in_interval": r.in_interval}


@_subcommand(
    "decide-avg-accept",
    _flag("--c", type=float, default=2.0 / 3.0),
    _flag("--s", type=float, default=1.0 / 3.0),
    _flag("--seed", type=int, required=True),
    _flag("--eps", type=float, default=None),
)
def _decide_avg_accept(p, args, circ) -> dict:
    return asdict(avg_accept_decider(circ, args.x, args.c, args.s, args.seed, epsilon=args.eps))


@_subcommand("validate-dqc1")
def _validate_dqc1(p, args, circ) -> dict:
    return {
        "valid": validate_dqc1(circ),
        "num_ancilla": circ.num_ancilla,
        "num_input": circ.num_input,
        "num_witness": circ.num_witness,
        "ancilla_bound": dqc1_ancilla_bound(circ.num_witness),
    }


def _pin_blas_threads() -> bool:
    """Run numpy's bundled OpenBLAS on one thread; False where it has no such call.

    A threaded BLAS sums in an order that follows the thread count, so the
    last bits of a record would too.  numpy's wheels bundle OpenBLAS with
    the setter below; the handle of numpy's linalg extension finds it
    among that extension's libraries.
    """
    try:
        library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        set_threads = library.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return False
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)
    return True


def run(argv: list[str]) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    if not argv or argv[0] in ("-h", "--help"):
        sys.stderr.write(
            "usage: qcount <subcommand> [options]\n"
            f"subcommands: {', '.join(sorted(_COMMANDS))}\n"
        )
        return 0 if argv else 1
    name, rest = argv[0], argv[1:]
    if name not in _COMMANDS:
        sys.stderr.write(f"qcount: unknown subcommand {name!r}\n")
        return 1
    _pin_blas_threads()
    try:
        return _run_subcommand(name, rest)
    except SystemExit as exc:  # argparse --help or usage error
        return int(exc.code or 0)
    except PreconditionError as exc:
        sys.stderr.write(f"qcount {name}: {exc}\n")
        return 2
    except InvariantViolation as exc:
        sys.stderr.write(f"qcount {name}: INVARIANT VIOLATION: {exc}\n")
        return 3


def main() -> None:
    code = run(sys.argv[1:])
    # The process is ending and exit frees everything anyway: frozen objects
    # are left out of the collections that interpreter shutdown runs.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
