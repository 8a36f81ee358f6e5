"""Command-line interface.

Subcommands: ``run`` executes an experiment spec file, ``solve`` runs a
single SGM solve and prints the result as JSON, ``tables`` prints the
embedded reference rows with the generation-ratio row, and ``validate``
runs the built-in self-checks.  Exit codes: 0 success, 1 configuration
error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import baselines, bench, engine, subdivision, testbed
from .core import EvalContext, EvalCounter, RngStream, Sense, SgmConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgmopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment spec file")
    p_run.add_argument("spec_file")

    p_solve = sub.add_parser("solve", help="single SGM run, result as JSON")
    p_solve.add_argument("function", help=f"objective name ({', '.join(testbed.VALID_NAMES)})")
    for key, (field, _) in bench.OVERRIDES.items():
        p_solve.add_argument(f"--{key}", help=f"sets SgmConfig.{field}")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--sense", choices=["min", "max"], default="min")

    sub.add_parser("tables", help="print the embedded reference table")
    sub.add_parser("validate", help="run invariant self-checks")
    return parser


def _cmd_solve(args) -> int:
    try:
        obj = testbed.make_objective(args.function)
        overrides = {k: getattr(args, k) for k in bench.OVERRIDES if getattr(args, k) is not None}
        cfg = bench.apply_overrides(engine.default_config(obj, seed=args.seed), overrides)
        cfg = replace(cfg, sense=Sense(args.sense))
        result = engine.solve(obj, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "function": obj.name,
        "best_point": list(result.best_point),
        "best_f": result.best_value,
        "evaluations": result.evaluations,
        "generations": result.generations,
        "sd": result.sd,
        "wallclock_ms": result.wallclock_ms,
    }, indent=2))
    return 0


def _cmd_run(args) -> int:
    try:
        spec = bench.parse_spec_file(args.spec_file)
        report = bench.run_experiment(spec)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1
    print(f"{len(report.rows)} trials")
    for agg in report.aggregates:
        png = agg.png if agg.png is not None else "-"
        print(f"{agg.function:6s} {agg.algorithm:4s} trials={agg.trials} "
              f"median_best_f={agg.median_best_f:.6g} "
              f"mean_generations={agg.mean_generations:.1f} "
              f"success_rate={agg.success_rate:.2f} png={png}")
    if spec.outputs:
        print(f"reports written to {spec.outputs}")
    return 0


def _cmd_tables(_args) -> int:
    print("algorithm".ljust(22) + "".join(n.rjust(8) for n in baselines.DE_JONG_COLUMNS))
    for row in baselines.reference_table():
        print(row.algorithm.ljust(22) + "".join(str(g).rjust(8) for g in row.gens))
    print("PNG".ljust(22) + "".join(str(v).rjust(8) for v in bench.png_row()))
    return 0


def _cmd_validate(_args) -> int:
    failures = []

    def check(name, fn):
        try:
            fn()
            print(f"ok   {name}")
        except Exception as exc:
            failures.append(name)
            print(f"FAIL {name}: {exc}")

    def check_labels():
        obj = testbed.make_objective("TP1", bounds=1.0)
        cfg = SgmConfig()
        ctx = EvalContext(obj, EvalCounter(1000), RngStream(0), Sense.MIN)
        cell = subdivision.initial_cell(obj.domain)
        rels = subdivision.corner_plan(2)    # the level-0 cell's base_k is (0, 0)
        got = {v.point: v.label for v in subdivision.label_vertices(ctx, cell, rels, None, cfg)}
        expect = {(-1.0, 1.0): 2, (1.0, 1.0): 2, (-1.0, -1.0): 0, (1.0, -1.0): 1}
        assert got == expect, f"labels {got} != {expect}"

    def check_gradients():
        rng = np.random.default_rng(7)
        for obj in map(testbed.make_objective, testbed.VALID_NAMES):
            if obj.gradient_fn is None:
                continue
            for _ in range(20):
                x = rng.uniform(obj.domain.lo * 0.9, obj.domain.hi * 0.9)
                g = obj.gradient_fn(x)
                fd = testbed.finite_difference_gradient(obj.fn, x)
                scale = max(1.0, float(np.max(np.abs(fd))))
                assert np.max(np.abs(g - fd)) / scale < 1e-4

    def check_png():
        assert bench.png_row() == (13, 24, 4, 22, 64)

    check("level-0 labeling oracle", check_labels)
    check("analytic gradients vs finite differences", check_gradients)
    check("generation-ratio row", check_png)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handlers = {
        "run": _cmd_run,
        "solve": _cmd_solve,
        "tables": _cmd_tables,
        "validate": _cmd_validate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
