"""Command-line driver: verify / minimize / compare / sample-failures.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from tunav.driver import (
    RunConfig,
    render_report,
    verify_program,
    load_sources,
)
from tunav.engine.prover import Limits
from tunav.errors import BaselineFailure, TunavError
from tunav.metrics import compare_metrics, read_metrics, records_of_run, write_metrics
from tunav.minimize import enumerate_assert_sites, minimize, prune_asts
from tunav.resolve import (
    LIVENESS_COMBINATIONS,
    LIVENESS_ROUNDS,
    PRELUDE_MODULES,
    Program,
)
from tunav.syntax import render_module
from tunav.vcgen import VcgenRun, generate_obligations
from tunav import triggers as trig


def int_at_least(minimum: int):
    """An argparse `type` that accepts an integer no smaller than `minimum`."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {n}")
        return n
    return parse


def add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--trigger-strategy", choices=["conservative", "all-triggers"],
                   default="conservative",
                   help="default trigger selection for unannotated quantifiers")
    p.add_argument("--fuel", type=int_at_least(0), default=1,
                   help="recursive definition unfolding depth")
    p.add_argument("--max-rounds", type=int_at_least(1), default=5)
    p.add_argument("--max-instantiations", type=int_at_least(1), default=10_000)
    p.add_argument("--max-splits", type=int_at_least(1), default=10_000)
    p.add_argument("--time-budget-ms", type=int_at_least(1), default=10_000)
    p.add_argument("--no-default-prelude", action="store_true",
                   help="do not auto-import the default broadcast group")
    p.add_argument("--ambient", action="append", default=[], metavar="PATH",
                   help="import this broadcast group/fact into every module "
                        "(repeatable)")
    p.add_argument("--jobs", type=int_at_least(1), default=1,
                   help="worker processes, forked after resolve, that take "
                        "tasks in order as each becomes free; results equal "
                        "--jobs 1")
    p.add_argument("--no-timing", action="store_true",
                   help="zero out timing fields (for byte-stable output)")


def config_of(args) -> RunConfig:
    strategy = (trig.ALL_TRIGGERS if args.trigger_strategy == "all-triggers"
                else trig.CONSERVATIVE)
    limits = Limits(max_rounds=args.max_rounds,
                    max_instantiations=args.max_instantiations,
                    max_splits=args.max_splits,
                    time_budget_ms=args.time_budget_ms)
    return RunConfig(strategy=strategy, fuel=args.fuel, limits=limits,
                     no_default_prelude=args.no_default_prelude,
                     ambient=tuple(args.ambient),
                     usage_report=getattr(args, "broadcast_usage_info", False),
                     jobs=args.jobs, no_timing=args.no_timing)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunav",
        description="A miniature auto-active verifier with tunable "
                    "quantifier instantiation")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify .tv source files")
    v.add_argument("files", nargs="*", help="source files (.tv)")
    v.add_argument("--broadcast-usage-info", action="store_true",
                   help="report which broadcasted lemmas/groups each "
                        "function used")
    v.add_argument("--emit-smtlib", metavar="DIR",
                   help="write each obligation as an SMT-LIB 2 script")
    v.add_argument("--metrics-out", metavar="PATH",
                   help="write per-function metrics (CSV or .json)")
    v.add_argument("--prelude-only", action="store_true",
                   help="verify the embedded prelude's broadcast lemmas")
    add_run_flags(v)

    m = sub.add_parser("minimize", help="remove solver-redundant asserts")
    m.add_argument("files", nargs="+")
    m.add_argument("--minimize-scope", choices=["function", "project"],
                   default="function")
    m.add_argument("--write", action="store_true",
                   help="rewrite each source file that lost asserts")
    m.add_argument("--report-json", metavar="PATH")
    add_run_flags(m)

    c = sub.add_parser("compare", help="compare two metrics files")
    c.add_argument("metrics_a")
    c.add_argument("metrics_b")
    c.add_argument("--out", metavar="PATH", help="write the per-function "
                   "ratio table as CSV")

    s = sub.add_parser("sample-failures",
                       help="remove sampled asserts one at a time and time "
                            "the failures")
    s.add_argument("files", nargs="+")
    s.add_argument("--n", type=int_at_least(1), default=20)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--out", metavar="PATH", help="CSV output path")
    add_run_flags(s)
    return parser


def warn_liveness_caps(program: Program):
    """Print to stderr one line naming the liveness caps that cut the
    program's broadcast fact instances short, and the facts they cut."""
    limits = {"rounds": f"{LIVENESS_ROUNDS} rounds",
              "combinations": f"{LIVENESS_COMBINATIONS} type argument combinations"}
    cut = [f"{limits[cap]} for {', '.join(facts)}"
           for cap, facts in program.liveness_caps.items()]
    if cut:
        print("warning: liveness instantiation stopped at its cap of "
              + "; ".join(cut) + "; further instances of these facts were not made",
              file=sys.stderr)


def cmd_verify(args) -> int:
    config = config_of(args)
    if args.prelude_only:
        run = verify_program([], config)
        warn_liveness_caps(run.program)
        prelude_tasks = [t for t in run.program.proof_fns()
                         if run.program.decl_module[t] in PRELUDE_MODULES]
        print(render_report(run, config, tasks=prelude_tasks))
        ok = all(run.results[t].passed for t in prelude_tasks)
        return 0 if ok else 1
    if not args.files:
        print("tunav verify: no input files", file=sys.stderr)
        return 2
    asts = load_sources(args.files)
    run = verify_program(asts, config)
    warn_liveness_caps(run.program)
    print(render_report(run, config))
    if args.metrics_out:
        write_metrics(records_of_run(run, config), args.metrics_out)
    if args.emit_smtlib:
        from tunav import smtlib
        vcgen_run = VcgenRun(run.program, run.registry, config.vcgen())
        obs = []
        for task in run.user_tasks:
            obs.extend(generate_obligations(task, vcgen_run))
        smtlib.emit_all(obs, args.emit_smtlib, config.strategy)
    return 0 if run.all_verified else 1


def cmd_minimize(args) -> int:
    config = config_of(args)
    asts = load_sources(args.files)
    report, pruned = minimize(asts, config, scope=args.minimize_scope)
    print(report.summary())
    if args.report_json:
        import json
        payload = {
            "original_count": report.original_count,
            "surviving_count": report.surviving_count,
            "removed": [{"function": s.function, "kind": s.kind,
                         "file": s.span.file, "line": s.span.line,
                         "ordinal": s.ordinal} for s in report.removed],
            "per_function": {k: {"original": v[0], "surviving": v[1]}
                             for k, v in sorted(report.per_function.items())},
            "runs": report.runs,
            "wall_ms": report.wall_ms,
            "unknown_kept": len(report.unknown_kept),
        }
        with open(args.report_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.write:
        # `prune_asts` returns a module that lost no site as the same object
        for original, tree in zip(asts, pruned):
            if tree is not original:
                with open(original.path, "w", encoding="utf-8") as fh:
                    fh.write(render_module(tree))
    return 0


def cmd_compare(args) -> int:
    a = read_metrics(args.metrics_a)
    b = read_metrics(args.metrics_b)
    comparison = compare_metrics(a, b)
    print(comparison.summary())
    csv_text = comparison.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        print(csv_text, end="")
    return 0


def cmd_sample_failures(args) -> int:
    import csv as csvmod

    config = config_of(args)
    asts = load_sources(args.files)
    baseline = verify_program(asts, config)
    bad = [t for t in baseline.user_tasks if not baseline.results[t].passed]
    if bad:
        raise BaselineFailure("program does not verify: " + ", ".join(bad))
    sites = enumerate_assert_sites(asts)
    if not sites:
        print("no assert sites to sample")
        return 0
    rng = random.Random(args.seed)
    picked = sorted(rng.sample(sites, min(args.n, len(sites))),
                    key=lambda s: (s.span.file, s.span.start))
    rows = []
    for site in picked:
        pruned = prune_asts(asts, {site.span.key()})
        t0 = time.monotonic()
        run = verify_program(pruned, config, tasks=[site.function])
        elapsed = (time.monotonic() - t0) * 1000.0
        result = run.results[site.function]
        base_ms = max(baseline.results[site.function].wall_ms, 0.001)
        rows.append({
            "function": site.function,
            "site": f"{site.span.file}:{site.span.line}",
            "status": result.status,
            "baseline_ms": f"{baseline.results[site.function].wall_ms:.3f}",
            "removed_ms": f"{elapsed:.3f}",
            "ratio": f"{elapsed / base_ms:.4f}",
        })
    fields = ["function", "site", "status", "baseline_ms", "removed_ms", "ratio"]
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            w = csvmod.DictWriter(fh, fieldnames=fields)
            w.writeheader()
            w.writerows(rows)
    failures = sum(1 for r in rows if r["status"] != "verified")
    print(f"sampled {len(rows)} removals: {failures} failed, "
          f"{len(rows) - failures} still verified")
    for r in rows:
        print(f"  {r['function']} {r['site']}: {r['status']} "
              f"ratio={r['ratio']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "minimize":
            return cmd_minimize(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "sample-failures":
            return cmd_sample_failures(args)
        parser.error(f"unknown command {args.command}")
    except BaselineFailure as e:
        print(f"error: {e.render()}", file=sys.stderr)
        return 1
    except TunavError as e:
        print(f"error: {e.render()}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - internal errors
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
