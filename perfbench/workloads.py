"""The benchmark's four workloads: seeded circuits and a fixed list of calls.

Each workload is built so that one layer of the program does most of its
work (README.md gives the reasons and the measured shares).  A workload
names the circuits it generates, the CLI calls one pass makes, the spans a
traced pass must fire, and the group of layer items it is built around.
Stochastic subcommands take their `--seed` from the benchmark seed, so one
benchmark seed fixes every input byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from circgen import Shape

RANDOM_SEED_MOD = 2**32


@dataclass(frozen=True)
class Call:
    """One CLI invocation: a label unique in its workload and its argv."""

    label: str
    argv: tuple[str, ...]

    @property
    def op(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple[Shape, ...]
    # (paths by shape name, seed) -> the calls of one pass
    calls: Callable[[dict[str, str], int], list[Call]]
    exercises: frozenset[str]
    dominant: tuple[str, ...]


def _dense_oracle(paths: dict[str, str], seed: int) -> list[Call]:
    d10, d9 = paths["d10"], paths["d9"]
    return [
        Call("exact-count.d10", ("exact-count", d10, "--c", "0.666", "--s", "0.333")),
        Call("exact-count.d9", ("exact-count", d9, "--c", "0.666", "--s", "0.333")),
        Call(
            "svt-amplify.d9",
            ("svt-amplify", d9, "--c", "0.8", "--s", "0.4", "--eps", "0.05"),
        ),
        Call(
            "reduce-interval.d9",
            (
                "reduce-interval", d9, "--M", "32",
                "--delta-strategy", "max", "--eps-strategy", "adversarial",
            ),
        ),
    ]


def _estimator_reduction(paths: dict[str, str], seed: int) -> list[Call]:
    e6 = paths["e6"]
    qseed = str(seed % RANDOM_SEED_MOD)
    return [
        Call("exact-count.e6", ("exact-count", e6, "--c", "0.666", "--s", "0.333")),
        Call(
            "reduce-interval.e6",
            ("reduce-interval", e6, "--M", "8", "--mode", "estimator", "--seed", qseed),
        ),
        Call("rect-poly.narrow", ("rect-poly", "--t", "0.5", "--width", "0.01", "--eps", "1e-3")),
    ]


def _matrix_free(paths: dict[str, str], seed: int) -> list[Call]:
    m13, p22 = paths["m13"], paths["p22"]
    qseed = str(seed % RANDOM_SEED_MOD)
    return [
        Call("estimate-trace.m13", ("estimate-trace", m13, "--M", "64", "--seed", qseed)),
        Call(
            "decide-avg-accept.m13",
            ("decide-avg-accept", m13, "--c", "0.9", "--s", "0.1", "--seed", qseed),
        ),
        Call("path-sum.exact.p22", ("path-sum", p22, "--mode", "exact")),
        Call(
            "path-sum.sampled.p22",
            ("path-sum", p22, "--mode", "sampled", "--samples", "262144", "--seed", qseed),
        ),
    ]


def _cli_small(paths: dict[str, str], seed: int) -> list[Call]:
    small = paths["small"]
    qseed = str(seed % RANDOM_SEED_MOD)
    return [
        Call("exact-count", ("exact-count", small, "--c", "0.666", "--s", "0.333")),
        Call("path-sum.exact", ("path-sum", small, "--mode", "exact")),
        Call("estimate-trace", ("estimate-trace", small, "--M", "64", "--seed", qseed)),
        Call("rect-poly", ("rect-poly", "--t", "0.5", "--width", "0.1", "--eps", "0.01")),
        Call("svt-amplify", ("svt-amplify", small, "--c", "0.8", "--s", "0.4", "--eps", "0.05")),
        Call(
            "reduce-interval",
            (
                "reduce-interval", small, "--M", "32",
                "--delta-strategy", "max", "--eps-strategy", "adversarial",
            ),
        ),
        Call("reduce-pad", ("reduce-pad", small, "--u-exponent", "0.5", "--eps", "0.9")),
        Call("decide-avg-accept", ("decide-avg-accept", small, "--seed", qseed)),
        Call("validate-dqc1", ("validate-dqc1", small)),
    ]


_DENSE_SPANS = frozenset(
    {
        "cli.run", "circuit.load", "circuit.embed", "spectral.operator", "spectral.eig",
        "svt.rect_poly", "svt.block_encoding", "svt.svd", "svt.apply",
        "reductions.query", "reductions.recover",
    }
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-oracle",
            shapes=(
                Shape("d10", ancilla=2, witness=10, h=16, s=8, tof=8),
                Shape("d9", ancilla=2, witness=9, h=60, s=30, tof=30),
            ),
            calls=_dense_oracle,
            exercises=_DENSE_SPANS,
            dominant=("circuit.embed",),
        ),
        Workload(
            name="estimator-reduction",
            shapes=(Shape("e6", ancilla=2, witness=6, h=30, s=15, tof=15),),
            calls=_estimator_reduction,
            exercises=_DENSE_SPANS | {"estimators.median"},
            dominant=("svt.rect_poly",),
        ),
        Workload(
            name="matrix-free",
            shapes=(
                Shape("m13", ancilla=2, witness=13, h=30, s=15, tof=15),
                Shape("p22", ancilla=1, witness=2, h=2, s=1, tof=1),
            ),
            calls=_matrix_free,
            exercises=frozenset(
                {
                    "cli.run", "circuit.load", "circuit.simulate", "estimators.trace",
                    "estimators.decider", "pathsum.exact", "pathsum.sampled",
                }
            ),
            dominant=("circuit.simulate", "pathsum.exact", "pathsum.sampled"),
        ),
        Workload(
            name="cli-small",
            shapes=(Shape("small", ancilla=1, witness=2, h=1, s=1, tof=1),),
            calls=_cli_small,
            exercises=_DENSE_SPANS
            | {
                "estimators.trace", "estimators.decider", "pathsum.exact",
                "reductions.pad",
            },
            dominant=("cli.interp_start", "cli.import"),
        ),
    )
}
