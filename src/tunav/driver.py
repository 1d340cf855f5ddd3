"""Verification pipeline: load sources, resolve, order tasks, prove every
obligation, and assemble per-function results, usage reports and metrics.

With `jobs` > 1, the tasks of a layer are verified by worker processes forked
after resolve. They inherit the resolved program and send back each task's
`FunctionResult`, so a run's results equal those of jobs=1.

Inside `shared_runs()`, the runs of the calling thread share one
`ResolveMemo` and one `LoweredFacts` dict; each run's results equal those of
a run outside it."""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass

from tunav.engine.prover import Limits, Origin, Outcome
from tunav.errors import ParseError
from tunav.prelude import load_prelude
from tunav.resolve import (
    BroadcastRegistry,
    Program,
    ResolveMemo,
    TaskOrder,
    order_tasks,
    resolve_program,
    task_imports,
)
from tunav.syntax import ProgramAst, parse_module
from tunav.vcgen import (
    LoweredFacts,
    Site,
    VcgenConfig,
    VcgenRun,
    generate_obligations,
    prove_obligation,
)
from tunav import triggers as trig


@dataclass(frozen=True)
class RunConfig:
    strategy: str = trig.CONSERVATIVE
    fuel: int = 1
    limits: Limits = Limits()
    no_default_prelude: bool = False
    ambient: tuple[str, ...] = ()
    usage_report: bool = False
    jobs: int = 1
    no_timing: bool = False

    def vcgen(self) -> VcgenConfig:
        return VcgenConfig(self.fuel, self.strategy, self.no_default_prelude,
                           self.ambient)


@dataclass
class FunctionResult:
    task: str
    status: str  # verified | failed | unknown
    obligations: list[tuple[Site, Outcome]]
    wall_ms: float
    context_facts: int
    instantiations: Counter
    rounds: int
    used_core: frozenset[Origin]
    # used lemma or axiom decl path -> the imported groups that contain it
    fact_groups: dict[str, tuple[str, ...]]

    @property
    def passed(self) -> bool:
        return self.status == "verified"


@dataclass
class VerifyRun:
    program: Program
    registry: BroadcastRegistry
    order: TaskOrder
    results: dict[str, FunctionResult]
    user_tasks: list[str]  # user-module tasks, source order

    @property
    def all_verified(self) -> bool:
        return all(r.passed for r in self.results.values())


def load_sources(paths: list[str]) -> list[ProgramAst]:
    asts = []
    for p in paths:
        with open(p, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"{p}: not valid UTF-8 (byte 0x{data[e.start]:02x} at "
                             f"offset {e.start})") from None
        # every line ending becomes "\n", as in a text-mode read
        asts.append(parse_module(text.replace("\r\n", "\n").replace("\r", "\n"), p))
    return asts


def resolve_with_prelude(user_asts: list[ProgramAst], memo: ResolveMemo | None = None):
    asts = load_prelude() + list(user_asts)
    return resolve_program(asts, memo)


def verify_task(task: str, run: VcgenRun, config: RunConfig) -> FunctionResult:
    t0 = time.monotonic()
    obs = generate_obligations(task, run)
    results: list[tuple[Site, Outcome]] = []
    insts: Counter = Counter()
    rounds = 0
    core: set[Origin] = set()
    context_facts = 0
    for ob in obs:
        context_facts = max(context_facts, len(ob.context.facts))
        out = prove_obligation(ob, config.limits, config.strategy)
        results.append((ob.site, out))
        insts.update(out.instantiations)
        rounds = max(rounds, out.rounds_used)
        if out.verified:
            core |= out.used_core
    # every import reaches the contexts after it, so the groups a used fact
    # came through are the task's imported groups that contain it
    registry = run.registry
    imports = task_imports(run.program, registry, task, config.ambient,
                           not config.no_default_prelude)
    groups = [g for g in dict.fromkeys(imports) if g in registry.groups]
    fact_groups = {o.path: tuple(g for g in groups if o.path in registry.groups[g])
                   for o in core if o.kind in ("lemma", "axiom")}
    wall = 0.0 if config.no_timing else (time.monotonic() - t0) * 1000.0
    statuses = [o.status for _, o in results]
    if all(s == "verified" for s in statuses):
        status = "verified"
    elif "failed" in statuses:
        status = "failed"
    else:
        status = "unknown"
    return FunctionResult(task, status, results, wall, context_facts, insts,
                          rounds, frozenset(core), fact_groups)


# The run whose tasks forked workers verify: (vcgen run, config).
# `verify_program` sets it before its pool forks and clears it when the run
# ends; each worker keeps the copy it was forked with.
_forked_run: tuple | None = None


def _verify_forked(task: str) -> FunctionResult:
    return verify_task(task, *_forked_run)


# What the runs inside `shared_runs()` share: (resolve memo, lowered facts).
# A context variable, so a run on any other thread or context shares nothing.
_shared: ContextVar[tuple[ResolveMemo, LoweredFacts] | None] = ContextVar(
    "tunav_shared_runs", default=None)


@contextlib.contextmanager
def shared_runs():
    """Within the block, the `verify_program` runs of this context reuse each
    other's resolution and lowered facts (a minimizer pass, whose runs differ
    in one declaration at a time). Both are dropped when the block ends."""
    token = _shared.set((ResolveMemo(), {}))
    try:
        yield
    finally:
        _shared.reset(token)


def _can_fork() -> bool:
    """Whether worker processes can be forked safely: the platform has fork,
    and no other thread runs that could hold a lock the child would inherit."""
    import multiprocessing
    import threading

    return ("fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1)


def _fork_pool(workers: int):
    """A pool of `workers` processes, each forked from this one when the pool
    first gets work."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))


def verify_program(user_asts: list[ProgramAst], config: RunConfig,
                   tasks: list[str] | None = None) -> VerifyRun:
    """Resolve the program and verify the selected tasks (all by default),
    layer by layer in dependency order. With `config.jobs` > 1, every layer
    of two or more tasks goes to one pool of at most `jobs` worker processes,
    forked after resolve; they return results in layer order, equal to those
    of jobs=1. Where fork is unavailable or unsafe, the run is serial."""
    global _forked_run
    # `lowered` holds the facts lowered for this run's tasks, or inside
    # `shared_runs()` for every run of the block
    memo, lowered = _shared.get() or (None, {})
    program, registry = resolve_with_prelude(user_asts, memo)
    order = order_tasks(program, registry, config.ambient,
                        not config.no_default_prelude)
    user_modules = {a.module for a in user_asts}
    selected = set(tasks) if tasks is not None else None
    layers = [[t for t in layer if selected is None or t in selected]
              for layer in order.layers]
    results: dict[str, FunctionResult] = {}
    vcgen_run = VcgenRun(program, registry, config.vcgen(), lowered)
    workers = min(config.jobs, max(map(len, layers), default=0))
    pool = None
    try:
        if workers >= 2 and _can_fork():
            _forked_run = (vcgen_run, config)
            pool = _fork_pool(workers)
        for todo in layers:
            if pool is not None and len(todo) >= 2:
                done = pool.map(_verify_forked, todo)
            else:
                done = [verify_task(t, vcgen_run, config) for t in todo]
            results.update(zip(todo, done))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        _forked_run = None

    user_tasks = [t for t in program.proof_fns()
                  if program.decl_module[t] in user_modules]
    return VerifyRun(program, registry, order, results, user_tasks)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

USAGE_HEADER = ("checking this function used these broadcasted lemmas "
                "and broadcast groups:")


def report_usage(result: FunctionResult) -> str:
    """The broadcast-usage report for one verified function, matching the
    verifier's output format byte for byte (modulo path prefixes)."""
    used_facts = sorted({o.path for o in result.used_core
                         if o.kind in ("lemma", "axiom")})
    groups: set[str] = set()
    for path in used_facts:
        groups.update(result.fact_groups.get(path, ()))
    entries = [f"(group) {g}" for g in sorted(groups)] + used_facts
    lines = [USAGE_HEADER]
    for i, entry in enumerate(entries):
        comma = "," if i + 1 < len(entries) else ""
        lines.append(f"        - {entry}{comma}")
    return "\n".join(lines)


def format_function_line(result: FunctionResult, no_timing: bool) -> str:
    word = {"verified": "PASS", "failed": "FAIL", "unknown": "UNKNOWN"}[result.status]
    n = len(result.obligations)
    obl = f"{n} obligation" + ("s" if n != 1 else "")
    if no_timing:
        return f"{word} {result.task} ({obl})"
    return f"{word} {result.task} ({obl}, {result.wall_ms:.0f} ms)"


def format_diagnostics(result: FunctionResult) -> list[str]:
    lines = []
    for site, out in result.obligations:
        if out.verified:
            continue
        reason = f" ({out.reason})" if out.reason else ""
        lines.append(f"  {site.span.file}:{site.span.line}:{site.span.col}: "
                     f"{site.kind} {out.status}{reason}")
    return lines


def render_report(run: VerifyRun, config: RunConfig,
                  tasks: list[str] | None = None) -> str:
    results = [run.results[t] for t in (run.user_tasks if tasks is None else tasks)
               if t in run.results]
    lines = []
    for result in results:
        lines.append(format_function_line(result, config.no_timing))
        lines.extend(format_diagnostics(result))
        if config.usage_report and result.passed:
            lines.append(report_usage(result))
    ok = sum(r.passed for r in results)
    lines.append(f"{ok}/{len(results)} functions verified")
    return "\n".join(lines)
