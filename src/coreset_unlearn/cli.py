"""Command-line interface.

Subcommands: ``gen`` (synthesize a dataset file), ``fit`` (train and
serialize a model), ``unlearn`` (apply a deletion stream to a serialized
model and print this run's core-set and free deletions: the model file keeps
no deletion counts), ``bench`` (full multi-method experiment), ``capacity``
(Monte Carlo capacity curves), ``verify`` (run the invariant suites of both
samplers).

Exit codes: 0 success, 1 usage error, 2 runtime error, 3 verification
failure.  A subcommand checks its arguments' ranges before it reads or
writes any file, so an out-of-range argument is a usage error; a malformed
input file is a runtime error.
"""

from __future__ import annotations

import argparse
import sys

from . import verify as verify_mod
from .bbq_linear import BBQParams, bbq_fit, deletion_update, load_model, save_model
from .capacity import CapacityParams, capacity_report_json, coreset_capacity, expected_capacity_mc
from .datastreams import (
    DatasetSpec,
    DeletionDistribution,
    deletion_stream,
    gen_dataset,
    load_dataset,
    save_dataset,
)
from .harness import ExperimentConfig, emit_report, run_experiment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is exit 1
        raise _UsageError(message)


def _seed(text: str) -> int:
    """The type of every ``--seed``: numpy seeds only from non-negative integers."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="coreset-unlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset file")
    p.add_argument("--kind", default="margin", choices=["realizable-linear", "margin", "clusters"])
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit the selective sampler and serialize the model")
    p.add_argument("--data", required=True)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--cap-k", type=float, default=32.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "unlearn", help="apply a deletion stream to a serialized model; prints this run's deletion counts"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", default="uniform", choices=["uniform", "by-label"])
    p.add_argument("--target-label", type=int, default=-1, choices=[-1, 1])
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="run the full experiment and emit reports")
    p.add_argument("--data", help="dataset file; omitted means a generated margin preset")
    p.add_argument("--t", type=int, default=20000)
    p.add_argument("--d", type=int, default=20)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--methods", default="bbq,sisa,retrain")
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--cap-k", type=float, default=32.0)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--shards", type=int, default=16)
    p.add_argument("--fraction", type=float, default=0.4)
    p.add_argument("--cadence", type=int, default=250)
    p.add_argument("--gate-policy", default="halt", choices=["halt", "refit"])
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output prefix for report files")

    p = sub.add_parser("capacity", help="Monte Carlo deletion-capacity curves")
    p.add_argument("--data", help="dataset file; omitted means a generated preset")
    p.add_argument("--t", type=int, default=2000)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--cap-k", type=float, default=10.0)
    p.add_argument("--k", type=int, default=10, help="core-set deletion budget under test")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--eps-bar", type=float, default=0.1, help="margin estimate for the closed-form budget")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run the invariant suites of both samplers")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=int, default=25)
    return parser


def _usage_checked(make, **kwargs):
    """``make(**kwargs)``, a parameter object; the ``ValueError`` it raises is an out-of-range argument."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _check_sampler_args(args) -> None:
    """``--kappa`` and ``--cap-k``; the horizon comes from the data, so 1 stands in for it."""
    _usage_checked(BBQParams, horizon=1, kappa=args.kappa, cap_k=args.cap_k)


def _cmd_gen(args) -> int:
    spec = _usage_checked(DatasetSpec, kind=args.kind, T=args.t, d=args.d, seed=args.seed, gamma=args.gamma)
    save_dataset(gen_dataset(spec), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    _check_sampler_args(args)
    ds = load_dataset(args.data)
    model = bbq_fit(ds, cap_k=args.cap_k, kappa=args.kappa)
    save_model(model, args.out)
    print(f"wrote {args.out} (core set {len(model.coreset)} of {len(ds)})")
    return EXIT_OK


def _cmd_unlearn(args) -> int:
    if args.n < 0:
        raise _UsageError(f"--n must be >= 0, got {args.n}")
    model = load_model(args.model)
    ds = load_dataset(args.data)
    dist = DeletionDistribution(kind=args.dist, target_label=args.target_label)
    stream = deletion_stream(ds, dist, args.n, seed=args.seed)
    deletion_update(model, stream)
    save_model(model, args.out)
    print(
        f"wrote {args.out} (core-set deletions {model.coreset_deletions}, "
        f"free {model.free_deletions})"
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    methods = tuple(m for m in args.methods.split(",") if m)
    if not methods:
        raise _UsageError("bench requires at least one method")
    dataset = args.data or _usage_checked(
        DatasetSpec, kind="margin", T=args.t, d=args.d, seed=args.seed, gamma=args.gamma
    )
    cfg = _usage_checked(
        ExperimentConfig,
        dataset=dataset,
        methods=methods,
        kappa=args.kappa,
        cap_k=args.cap_k,
        delta=args.delta,
        shards=args.shards,
        deletion_fraction=args.fraction,
        cadence=args.cadence,
        seed=args.seed,
        gate_policy=args.gate_policy,
    )
    report = run_experiment(cfg)
    for path in emit_report(report, args.out):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_capacity(args) -> int:
    if args.k < 1 or args.trials < 1:
        raise _UsageError(f"--k and --trials must be >= 1, got {args.k} and {args.trials}")
    _check_sampler_args(args)
    # T and d come from the data; 1 stands in for them while the other ranges are checked
    _usage_checked(
        CapacityParams, T=1, d=1, kappa=args.kappa, delta=args.delta, eps_bar=args.eps_bar, K=args.cap_k
    )
    if args.data:
        ds = load_dataset(args.data)
    else:
        spec = _usage_checked(DatasetSpec, kind="realizable-linear", T=args.t, d=args.d, seed=args.seed)
        ds = gen_dataset(spec)
    curve = expected_capacity_mc(
        ds,
        DeletionDistribution(kind="uniform"),
        K=args.k,
        trials=args.trials,
        seed=args.seed,
        cap_k=args.cap_k,
        kappa=args.kappa,
    )
    params = CapacityParams(
        T=len(ds), d=ds.spec.d, kappa=args.kappa, delta=args.delta,
        eps_bar=args.eps_bar, K=args.cap_k,
    )
    capacity_report_json(curve, args.out, params)
    print(f"wrote {args.out} (closed-form budget {coreset_capacity(params)})")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials < 1:  # a bad argument (exit 1), not a failed invariant (exit 3)
        raise _UsageError(f"--trials must be >= 1, got {args.trials}")
    results = verify_mod.run_all(args.seed, args.trials)
    failed = False
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed = failed or not ok
    return EXIT_VERIFY if failed else EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "fit": _cmd_fit,
    "unlearn": _cmd_unlearn,
    "bench": _cmd_bench,
    "capacity": _cmd_capacity,
    "verify": _cmd_verify,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # surfaced with context, mapped to the runtime exit code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
