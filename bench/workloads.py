"""The benchmark's ops: calls into tunav's public API, verdict checks against
the hand-written ground truth in `inputs`, and the per-layer trace wiring.

Every op parses its project from source text: `verify_program` rewrites `use`
paths in place in the ASTs it is given, so ASTs are never reused."""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass, field

import tunav.driver
import tunav.minimize
from tunav.driver import RunConfig, verify_program
from tunav.minimize import enumerate_assert_sites, minimize
from tunav.syntax import parse_module

from inputs import Project, minimize_expectation
from spans import Tracer, patched
from speed import Reference


@dataclass
class Op:
    ms: float  # wall time
    scale: float  # takes `ms` to the nominal host speed (see speed.py)
    ok: bool
    functions: int = 0
    obligations: int = 0
    unknown: int = 0
    error: str | None = None

    @property
    def norm_ms(self) -> float:
        return self.ms * self.scale


@dataclass
class Unit:
    """One pass of the closed loop: a whole-project verify (one op) or a
    minimizer pass (one op per trial). `counts` must repeat exactly across
    units when jobs=1; `problems` lists what disagreed with ground truth."""
    ops: list[Op]
    wall_s: float
    counts: tuple = ()
    problems: list[str] = field(default_factory=list)


def parse(project: Project):
    return [parse_module(s.text, s.path, module=s.module) for s in project.sources]


def run_counts(run) -> Counter:
    """Counts taken from one VerifyRun."""
    c = Counter()
    c["functions"] = len(run.results)
    c["mono_instances"] = len(run.program.instances)
    for r in run.results.values():
        for _site, out in r.obligations:
            c["obligations"] += 1
            c["instantiations"] += sum(out.instantiations.values())
            c["splits"] += out.splits_used
            c["unknown"] += out.status == "unknown"
    return c


def verdict_problems(run, expect: dict[str, bool]) -> list[str]:
    """Functions whose verdict differs from the expected one. Functions not
    in `expect` (prelude lemmas) must verify."""
    problems = []
    for task, want in expect.items():
        result = run.results.get(task)
        if result is None:
            problems.append(f"{task}: no verdict")
        elif result.passed != want:
            problems.append(f"{task}: {result.status}, expected "
                            f"{'verified' if want else 'not verified'}")
    for task, result in run.results.items():
        if task not in expect and not result.passed:
            problems.append(f"{task}: {result.status}, expected verified")
    return problems


class VerifyWorkload:
    """One op = parse the project and verify every function."""

    def __init__(self, project: Project, jobs: int, ref: Reference):
        self.project = project
        self.config = RunConfig(jobs=jobs)
        self.ref = ref

    def unit(self, tracer: Tracer | None = None) -> Unit:
        with traced_layers(tracer) as (span, wrap):
            verify = wrap(verify_program, "driver.verify_program", _driver_counts)
            t0 = time.perf_counter()
            try:
                with span("bench.op"):
                    with span("syntax.parse"):
                        asts = parse(self.project)
                    run = verify(asts, self.config)
            except Exception as exc:  # an op that raises is a failed op
                ms = (time.perf_counter() - t0) * 1000.0
                return Unit([Op(ms, self.ref.scale(), False, error=repr(exc))],
                            ms / 1000.0, problems=[f"raised {exc!r}"])
            ms = (time.perf_counter() - t0) * 1000.0
        scale = self.ref.scale()
        c = run_counts(run)
        problems = verdict_problems(run, self.project.expect)
        op = Op(ms, scale, not problems, c["functions"], c["obligations"],
                c["unknown"])
        counts = (c["obligations"], c["instantiations"], c["splits"],
                  c["mono_instances"])
        return Unit([op], ms / 1000.0, counts, problems)


class MinimizeWorkload:
    """One unit = one `minimize(..., scope="function")` pass over the
    project; each re-verification trial inside it is one op."""

    def __init__(self, project: Project, ref: Reference):
        self.project = project
        self.config = RunConfig()
        self.ref = ref

    def unit(self, tracer: Tracer | None = None) -> Unit:
        problems = []
        trials = []  # (ms, scale, counts, verified); counts None if it raised

        def timed(original, span):
            def trial(asts, config, tasks=None):
                t0 = time.perf_counter()
                try:
                    run = original(asts, config, tasks=tasks)
                except Exception:
                    ms = (time.perf_counter() - t0) * 1000.0
                    trials.append((ms, self.ref.scale(), None, None))
                    raise
                ms = (time.perf_counter() - t0) * 1000.0
                with span("bench.reference"):
                    scale = self.ref.scale()
                if tasks is None:  # the minimizer's baseline: all must verify
                    problems.extend(verdict_problems(run, self.project.expect))
                else:
                    trials.append((ms, scale, run_counts(run),
                                   trial_verdict(run, tasks)))
                return run
            return trial

        t0 = time.perf_counter()
        ref_s = self.ref.spent_s
        with traced_layers(tracer) as (span, wrap), \
                patched(tunav.minimize, "verify_program",
                        timed(tunav.minimize.verify_program, span)):
            run_minimize = wrap(minimize, "minimize.minimize", _minimize_counts)
            try:
                with span("bench.op"):
                    with span("syntax.parse"):
                        asts = parse(self.project)
                    report, _ = run_minimize(asts, self.config, scope="function")
            except Exception as exc:  # the pass stops at a failed op
                problems.append(f"raised {exc!r}")
                report = None
        wall_s = time.perf_counter() - t0 - (self.ref.spent_s - ref_s)

        ids = site_ids(enumerate_assert_sites(parse(self.project)))
        expected_trials, expected_removed = minimize_expectation(list(ids.values()))
        ops = []
        total = Counter()
        for i, (ms, scale, c, got) in enumerate(trials):
            if c is None:
                ops.append(Op(ms, scale, False, error="raised"))
                continue
            total += c
            want = expected_trials[i] if i < len(expected_trials) else None
            if got != want:
                problems.append(f"trial {i}: {'verified' if got else 'not verified'}"
                                f", expected {want}")
            ops.append(Op(ms, scale, got == want, c["functions"],
                          c["obligations"], c["unknown"]))
        if report is None:
            if not any(op.error for op in ops):
                # minimize itself raised (say, on a baseline that fails to verify)
                ops.append(Op(wall_s * 1000.0 - sum(op.ms for op in ops), 1.0,
                              False, error=problems[-1]))
            return Unit(ops, wall_s, (), problems)
        removed = {ids[s.span.key()] for s in report.removed}
        if removed != expected_removed or len(trials) != len(expected_trials):
            # the pass's result is the product of all its trials
            for op in ops:
                op.ok = False
            problems.append(
                f"removed {len(removed)} sites in {len(trials)} trials, "
                f"expected {len(expected_removed)} in {len(expected_trials)}; "
                f"extra={sorted(removed - expected_removed)} "
                f"missed={sorted(expected_removed - removed)}")
        counts = (len(report.removed), total["obligations"], total["instantiations"],
                  total["splits"], total["mono_instances"])
        return Unit(ops, wall_s, counts, problems)


def trial_verdict(run, tasks) -> bool:
    """Whether every function a trial re-verified has a verified verdict."""
    return all(t in run.results and run.results[t].passed for t in tasks)


def site_ids(sites) -> dict:
    """Span key -> (function, per-function ordinal), the labels' site ids."""
    seen = Counter()
    out = {}
    for s in sites:
        out[s.span.key()] = (s.function, seen[s.function])
        seen[s.function] += 1
    return out


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def _resolve_counts(result):
    program, _registry = result
    return {"mono_instances": len(program.instances)}


def _order_counts(order):
    return {"order_layers": len(order.layers)}


def _vcgen_counts(obs):
    return {"obligations": len(obs),
            "context_facts": sum(len(ob.context.facts) for ob in obs)}


def _driver_counts(run):
    return {"tasks": len(run.results)}


def _minimize_counts(result):
    report, _pruned = result
    return {"trials": report.runs - 1, "removed": len(report.removed)}


def _engine_counts(out):
    used = {o.path for o in out.used_core}
    inst = {k for k, n in out.instantiations.items() if n}
    return {"instantiations": sum(out.instantiations.values()),
            "splits": out.splits_used, "rounds": out.rounds_used,
            "unknown": int(out.status == "unknown"),
            "inst_facts": len(inst), "core_inst_facts": len(inst & used)}


# The functions tunav.driver imports and calls per layer: (attribute, span
# name, counts taken from the result).
DRIVER_LAYERS = (
    ("load_prelude", "prelude.load_prelude", None),
    ("resolve_program", "resolve.resolve_program", _resolve_counts),
    ("order_tasks", "resolve.order_tasks", _order_counts),
    ("generate_obligations", "vcgen.generate_obligations", _vcgen_counts),
    ("prove_obligation", "engine.prove_obligation", _engine_counts),
)


@contextlib.contextmanager
def traced_layers(tracer: Tracer | None):
    """Yield `(span, wrap)`: a span context factory and a function wrapper.
    With a tracer, the layer entry points are also wrapped for the block;
    without one, spans and wrappers do nothing."""
    if tracer is None:
        yield (lambda name: contextlib.nullcontext()), (lambda fn, name, measure: fn)
        return
    with contextlib.ExitStack() as stack:
        for attr, name, measure in DRIVER_LAYERS:
            stack.enter_context(patched(tunav.driver, attr, tracer.wrap(
                getattr(tunav.driver, attr), name, measure)))
        stack.enter_context(patched(tunav.minimize, "verify_program", tracer.wrap(
            tunav.minimize.verify_program, "driver.verify_program", _driver_counts)))
        yield tracer.span, tracer.wrap


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics `name -> (value, unit)` from the traced units: self
    times and counts per op, plus maxima and ratios over the traced run.
    Worker-thread spans also give the time they waited: wall minus CPU."""
    self_ms = tracer.self_ms()
    ms = Counter()
    n = Counter()
    max_ob_ms = 0.0
    rounds_max = 0
    order_layers = 0
    pool_wait_ms = 0.0
    for sp in tracer.spans:
        ms[sp.name] += self_ms[sp.id]
        if sp.thread != tracer.main_thread:
            pool_wait_ms += (sp.end - sp.start) * 1000.0 - sp.cpu_ms
        n.update(sp.counts)
        if sp.name == "engine.prove_obligation":
            max_ob_ms = max(max_ob_ms, (sp.end - sp.start) * 1000.0)
            rounds_max = max(rounds_max, sp.counts.get("rounds", 0))
        order_layers = max(order_layers, sp.counts.get("order_layers", 0))
    minimize_passes = sum(1 for sp in tracer.spans if sp.name == "minimize.minimize")
    per_op = 1.0 / ops
    per_pass = 1.0 / minimize_passes if minimize_passes else 0.0
    return {
        "syntax.parse_ms": (ms["syntax.parse"] * per_op, "ms/op"),
        "prelude.load_ms": (ms["prelude.load_prelude"] * per_op, "ms/op"),
        "resolve.resolve_ms": (ms["resolve.resolve_program"] * per_op, "ms/op"),
        "resolve.order_ms": (ms["resolve.order_tasks"] * per_op, "ms/op"),
        "resolve.mono_instances": (n["mono_instances"] * per_op, "count/op"),
        "resolve.order_layers": (order_layers, "count"),
        "vcgen.ms": (ms["vcgen.generate_obligations"] * per_op, "ms/op"),
        "vcgen.obligations": (n["obligations"] * per_op, "count/op"),
        "vcgen.context_facts_mean": (n["context_facts"] / max(n["obligations"], 1),
                                     "count"),
        "engine.ms": (ms["engine.prove_obligation"] * per_op, "ms/op"),
        "engine.max_obligation_ms": (max_ob_ms, "ms"),
        "engine.instantiations": (n["instantiations"] * per_op, "count/op"),
        "engine.splits": (n["splits"] * per_op, "count/op"),
        "engine.rounds_max": (rounds_max, "count"),
        "engine.unknown": (n["unknown"] * per_op, "count/op"),
        "engine.core_fact_ratio": (n["core_inst_facts"] / max(n["inst_facts"], 1),
                                   "ratio"),
        "driver.self_ms": (ms["driver.verify_program"] * per_op, "ms/op"),
        "driver.tasks": (n["tasks"] * per_op, "count/op"),
        "driver.pool_wait_ms": (pool_wait_ms * per_op, "ms/op"),
        "minimize.trials": (n["trials"] * per_pass, "count/pass"),
        "minimize.removed": (n["removed"] * per_pass, "count/pass"),
        "minimize.self_ms": (ms["minimize.minimize"] * per_op, "ms/op"),
    }
