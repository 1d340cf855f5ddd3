"""Verification pipeline: load sources, resolve, order tasks, prove every
obligation, and assemble per-function results, usage reports and metrics.

With `jobs` > 1, the tasks are verified by `min(jobs, tasks)` worker
processes forked after resolve, which inherit the resolved program. Each
worker claims the next task of the whole order from a shared counter, so
there is no barrier between task layers: a task reads no other task's
result. At the end each worker sends one pickle of its results, and the
parent puts them in task order, so a run's results and errors equal those of
jobs=1.

Inside `shared_runs()`, the runs of the calling thread share one
`ResolveMemo` and one `LoweredFacts` dict; each run's results equal those of
a run outside it."""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NoReturn

from tunav.engine.prover import Limits, Origin, Outcome
from tunav.errors import ParseError, TunavError
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


# The fork-join below imports its modules inside its functions, as
# `_can_fork` does, so that a serial run loads none of them.


class WorkerTraceback(Exception):
    """The traceback, formatted in a worker process, of the error that one of
    its tasks raised: the `__cause__` of that error when the parent re-raises
    it."""

    def __str__(self) -> str:
        return self.args[0]


def _work(todo: list[str], run: VcgenRun, config: RunConfig, lock,
          claimed, out_fd: int) -> NoReturn:
    """The life of a forked worker: verify the task at each index it claims
    from the shared counter until the counter passes the end, then write one
    pickle of `(pairs, error)` to `out_fd` and leave with `os._exit`, which
    neither returns into the caller's frames nor flushes the stdio buffers
    inherited from the parent. `pairs` holds `(index, result)` for every task
    verified; if a task raised, `pairs` is empty, `error` is that task's
    `(index, exception, formatted traceback)` and the counter is stopped."""
    import pickle

    code = 1
    try:
        pairs: list[tuple[int, FunctionResult]] = []
        error = None
        while True:
            with lock:
                i = claimed.value
                claimed.value = i + 1
            if i >= len(todo):
                break
            try:
                pairs.append((i, verify_task(todo[i], run, config)))
            except Exception as e:
                import traceback

                with lock:
                    claimed.value = len(todo)
                pairs, error = [], (i, e, traceback.format_exc())
                break
        with open(out_fd, "wb") as out:
            pickle.dump((pairs, error), out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _join(pipes: dict[int, int]) -> list[tuple]:
    """Read each worker's pipe to EOF, then reap the worker and drop it from
    `pipes` (read end -> pid). Return the workers' payloads; a worker that
    was killed or exited without writing raises TunavError."""
    import pickle
    import select
    import signal

    chunks: dict[int, list[bytes]] = {r: [] for r in pipes}
    payloads = []
    readable = select.poll()
    for r in pipes:
        readable.register(r, select.POLLIN)
    while pipes:
        for r, _ in readable.poll():
            chunk = os.read(r, 1 << 16)
            if chunk:
                chunks[r].append(chunk)
                continue
            pid = pipes[r]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pipes[r]
            readable.unregister(r)
            os.close(r)
            data = b"".join(chunks.pop(r))
            if code < 0:
                try:
                    name = signal.Signals(-code).name
                except ValueError:
                    name = f"signal {-code}"
                raise TunavError(f"worker process {pid} was killed by {name}")
            if code != 0 or not data:
                raise TunavError(f"worker process {pid} exited with code {code} "
                                 "without writing its results")
            payloads.append(pickle.loads(data))
    return payloads


def _fork_join(todo: list[str], workers: int, run: VcgenRun,
               config: RunConfig) -> list[FunctionResult]:
    """Verify `todo` in `workers` processes forked from this one and return
    the results in `todo` order, equal to those of a serial run. Each worker
    claims the next index from a shared counter, so no task waits for any
    other. If tasks raised, the error of the lowest failing index, the one a
    serial run raises, is re-raised with the worker's traceback as its
    cause. No worker outlives the call: if the wait is cut short, the workers
    left are killed and reaped."""
    import multiprocessing
    import signal

    ctx = multiprocessing.get_context("fork")
    lock, claimed = ctx.Lock(), ctx.RawValue("q", 0)
    pipes: dict[int, int] = {}  # read end of each unreaped worker's pipe -> pid
    try:
        for _ in range(workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _work(todo, run, config, lock, claimed, w)
            os.close(w)  # so that EOF on `r` means the worker has exited
            pipes[r] = pid
        payloads = _join(pipes)
    finally:
        for r, pid in pipes.items():
            os.close(r)
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results: list[FunctionResult] = [None] * len(todo)
    errors = []
    for pairs, error in payloads:
        for i, result in pairs:
            results[i] = result
        if error is not None:
            errors.append(error)
    if errors:
        _, e, tb = min(errors, key=lambda error: error[0])
        raise e from WorkerTraceback(tb)
    return results


def verify_program(user_asts: list[ProgramAst], config: RunConfig,
                   tasks: list[str] | None = None) -> VerifyRun:
    """Resolve the program and verify the selected tasks (all by default) in
    dependency order. With `config.jobs` > 1 and two or more tasks selected,
    `min(jobs, tasks)` worker processes forked after resolve verify them,
    with results and errors equal to those of jobs=1. Where fork is
    unavailable or unsafe, the run is serial."""
    # `lowered` holds the facts lowered for this run's tasks, or inside
    # `shared_runs()` for every run of the block
    memo, lowered = _shared.get() or (None, {})
    program, registry = resolve_with_prelude(user_asts, memo)
    order = order_tasks(program, registry, config.ambient,
                        not config.no_default_prelude)
    user_modules = {a.module for a in user_asts}
    selected = set(tasks) if tasks is not None else None
    todo = [t for t in order.tasks if selected is None or t in selected]
    vcgen_run = VcgenRun(program, registry, config.vcgen(), lowered)
    workers = min(config.jobs, len(todo))
    if workers >= 2 and _can_fork():
        done = _fork_join(todo, workers, vcgen_run, config)
    else:
        done = [verify_task(t, vcgen_run, config) for t in todo]
    results = dict(zip(todo, done))

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
