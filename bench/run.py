"""Benchmark for tunav, driven through its public Python API.

    python3 bench/run.py --workload verify-corpus --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

One caller in one process runs a closed loop: the next op starts only after
the previous one returned. Workloads (inputs come from `--seed` only):

  verify-corpus    the labelled corpus, file order shuffled, jobs=1; one op
                   is one whole-project verify (the edit-verify loop).
  minimize-corpus  minimize(..., scope="function") on the shuffled corpus;
                   one op is one re-verification trial.
  verify-synth     4 renamed copies of the corpus with 8 witness asserts
                   deleted, jobs=2; one op is one whole-project verify.

Every verdict is checked against the hand-written labels (see inputs.py).
Op times are printed raw and scaled to a nominal host speed by a reference
loop timed around each op (see speed.py); the scaled median is the bounded
latency. `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
untraced and traced units and prints per-layer metrics from the traced ones,
plus the tracing overhead. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "traces")

WORKLOADS = ("verify-corpus", "minimize-corpus", "verify-synth")
SYNTH_JOBS = 2
# Reference-loop length (see speed.py), about a tenth of a verify op and
# about the length of a minimizer trial.
REFERENCE_ROUNDS = {"verify-corpus": 180, "minimize-corpus": 90, "verify-synth": 180}
SETUP_SAMPLES = 3  # fresh processes that import tunav and run the first op
P90_MIN_OPS = 100  # p90 needs ten samples beyond it
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # child: print setup time only
    return ap.parse_args(argv)


def make_project(workload: str, seed: int):
    import inputs
    if workload == "verify-synth":
        return inputs.synth_project(seed)
    return inputs.corpus_project(seed)


def setup(workload: str, project):
    """Import tunav and finish the first, untimed op. Returns the workload
    object, the seconds this took (raw, and scaled to the nominal host speed
    by the reference loops before and after it) and the op's disagreements
    with ground truth."""
    from speed import Reference
    jobs = SYNTH_JOBS if workload == "verify-synth" else 1
    ref = Reference(REFERENCE_ROUNDS[workload], threads=jobs)
    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0
    if workload == "minimize-corpus":
        wl = workloads.MinimizeWorkload(project, ref)
        first = workloads.VerifyWorkload(project, 1, ref).unit()
    else:
        wl = workloads.VerifyWorkload(project, jobs, ref)
        first = wl.unit()
    op = first.ops[0]
    seconds = import_s + op.ms / 1000.0
    return wl, (seconds, seconds * op.scale), first.problems


def probe_setup(args) -> tuple[float, float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return tuple(json.loads(out.stdout.splitlines()[-1])["setup_s"])


def pct(values, q):
    """The q-th percentile (0 < q < 100), interpolated within the data."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def loop(wl, seconds: float, trace: bool):
    """Run units until `seconds` have passed. With `trace`, alternate
    untraced and traced units, starting untraced, and run at least one of
    each."""
    from spans import Tracer
    tracer = Tracer() if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or not plain or (trace and not traced)):
        use = tracer is not None and len(traced) < len(plain)
        (traced if use else plain).append(wl.unit(tracer if use else None))
    return plain, traced, tracer


def summarize(workload, units, label):
    ops = [op for u in units for op in u.ops]
    ms = [op.ms for op in ops]
    norm = [op.norm_ms for op in ops]
    wall = sum(u.wall_s for u in units)
    failed = sum(1 for op in ops if not op.ok)
    obligations = sum(op.obligations for op in ops)
    unknown = sum(op.unknown for op in ops)
    per_s = (len(ops) if workload == "minimize-corpus"
             else sum(op.functions for op in ops)) / wall
    lines = [f"{label}ops {len(ops)} in {len(units)} units, {wall:.1f} s timed"]
    stats = {"norm_op_ms_p50": (statistics.median(norm), "ms"),
             "norm_op_ms_p10": (pct(norm, 10), "ms"),
             "op_ms_p50": (statistics.median(ms), "ms"),
             "op_ms_p10": (pct(ms, 10), "ms"),
             "functions_per_s": (per_s, "1/s"),
             "failed_op_frac": (failed / len(ops), "ratio"),
             "unknown_frac": (unknown / max(obligations, 1), "ratio")}
    if len(ops) >= P90_MIN_OPS:
        stats["op_ms_p90"] = (pct(ms, 90), "ms")
    for name, (value, unit) in stats.items():
        lines.append(f"{label}{name} {value:.6g} {unit}")
    return ops, failed, stats, lines


def check_counts(wl, units) -> list[str]:
    """At jobs=1 the counts must repeat exactly from unit to unit."""
    if wl.config.jobs > 1:
        return []
    seen = {u.counts for u in units if u.counts}
    if len(seen) > 1:
        return [f"counts differ between units at jobs=1: {sorted(seen)}"]
    return []


def run_workload(args) -> int:
    project = make_project(args.workload, args.seed)
    wl, setup_s, problems = setup(args.workload, project)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    setup_med = statistics.median(norm for _raw, norm in setups)

    plain, traced, tracer = loop(wl, args.seconds, bool(args.trace))
    units = plain + traced
    problems += [p for u in units for p in u.problems]
    problems += check_counts(wl, units)

    ops, failed, stats, lines = summarize(args.workload, plain, "")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append(f"peak_rss_mb {rss_mb:.6g} MB")
    lines.append(f"setup_s {setup_med:.6g} s (median of {len(setups)}, "
                 "scaled: " + ", ".join(f"{n:.3f}" for _r, n in setups)
                 + "; raw: " + ", ".join(f"{r:.3f}" for r, _n in setups) + ")")
    if units[0].counts:
        lines.append(f"counts per unit {units[0].counts}")
    # Only metrics that are never 0 and hold still from run to run on a
    # shared host are bounded; the rest are printed above.
    metrics = {
        "norm_op_ms_p50": stats["norm_op_ms_p50"],
        "decided_frac": (1.0 - stats["unknown_frac"][0], "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_med, "s"),
    }
    attempted = len(ops)
    if tracer is not None:
        import workloads
        t_ops, t_failed, t_stats, t_lines = summarize(args.workload, traced, "traced ")
        lines += t_lines
        attempted += len(t_ops)
        failed += t_failed
        overhead = t_stats["norm_op_ms_p50"][0] / stats["norm_op_ms_p50"][0] - 1.0
        metrics = workloads.layer_metrics(tracer, len(t_ops))
        metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        lines.append(f"spans {len(tracer.spans)} written to "
                     f"{os.path.relpath(path, ROOT)}")
        lines += [f"{name} {value:.6g} {unit}" for name, (value, unit)
                  in metrics.items()]

    for p in problems[:20]:
        lines.append(f"MISMATCH {p}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    print("\n".join(lines))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, timeout=3 * CHILD_TIMEOUT_S)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tunav", "__init__.py")):
        print(f"bench: tunav sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
