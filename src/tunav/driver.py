"""Verification pipeline: load sources, resolve, order tasks, prove every
obligation, and assemble per-function results, usage reports and metrics.

Every run takes one path from task to result (`_verify_tasks`). The parent
process looks up in the prelude store (`resolve.PreludeStore`) each task
whose instance the store keeps, which makes that task's obligations, then
proves the misses, and keeps each result the store can hold. Only the
parent reads and fills the store; workers only prove. The store keeps the
prelude's resolve, and the results of the prelude's tasks, for the life of
the process.

With `jobs` > 1 and two or more misses, the misses are proved in up to
`jobs` processes, one per miss at most: this one and `jobs - 1` forked
workers; the parent proves too. Before the fork the parent lowers the
prelude's facts, so the workers inherit the resolved program, those facts
and the obligations the parent made. Each process claims the next miss of
the whole order from a shared counter, so there is no barrier between task
layers: a task reads no other task's result. When the counter passes the
end, each worker sends one pickle of its results; the parent keeps its own
as they are and puts all of them in task order, so a run's results and
errors equal those of jobs=1.

Inside `shared_runs()`, the runs of the calling thread also share one
`ResolveMemo` for the rest; each run's results equal those of a run outside
it. The facts vcgen lowers from an instance live in the instance's resolve
record (`resolve.MonoFn`), and so exactly as long as it: for the run, for
the `shared_runs()` block, or, for an instance the prelude store keeps, for
the process.

A run makes no reference cycles: all it builds is freed by reference
counting, so it pauses Python's cycle collector (`cyclegc.paused`), whose
every collection inside it would free nothing. A caller's disabled collector
stays disabled, and forked workers inherit the pause. On threads, one run's
end can resume the collector while another's is still inside; that is
harmless, as no run makes cycles."""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter
from collections.abc import Callable
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NoReturn

from tunav import cyclegc
from tunav.engine.prover import Origin, Outcome
from tunav.errors import ParseError, TunavError
from tunav.prelude import load_prelude, prelude_store
from tunav.resolve import (
    BroadcastRegistry,
    Program,
    ResolveMemo,
    TaskOrder,
    module_of,
    order_tasks,
    resolve_program,
    task_imports,
)
from tunav.syntax import ProgramAst, parse_module
from tunav.vcgen import (
    Obligation,
    RunConfig,
    Site,
    VcgenRun,
    generate_obligations,
    prove_obligation,
)


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
        # a leading byte order mark is dropped and every line ending becomes
        # "\n", as in a text-mode read
        text = text.removeprefix("\ufeff")
        asts.append(parse_module(text.replace("\r\n", "\n").replace("\r", "\n"), p))
    return asts


def resolve_with_prelude(user_asts: list[ProgramAst], memo: ResolveMemo | None = None):
    asts = load_prelude() + list(user_asts)
    return resolve_program(asts, memo)


def _verdict_key(task: str, obs: list[Obligation], run: VcgenRun) -> tuple | None:
    """The key under which the prelude store keeps the result of `task`, a
    task whose instance it keeps and whose obligations are `obs`; None
    unless every fact of every context is kept there too, so that all the
    objects that fix what the engine is given are. The key holds the
    instance's declaration, each context's facts in order, by identity, and
    the config fields that decide the outcome, with `no_timing` so that
    `wall_ms` follows the run. The store's records hold that declaration and
    those facts (`MonoFn.lowered`) for as long as the store keeps the key, so
    no id in a key is reused while it lives. Liveness
    decides which instances of a generic fact a prelude task imports, so the
    user program may change its contexts: the task symbol is no key."""
    contexts = []
    for ob in obs:
        facts = ob.context.facts
        if not all(qf.kept for qf in facts):
            return None
        contexts.append(tuple(map(id, facts)))
    c = run.config
    return (id(run.program.verify_instance(task).decl), tuple(contexts),
            c.strategy, c.fuel, c.limits, c.no_default_prelude, c.no_timing)


def verify_task(task: str, run: VcgenRun, obs: list[Obligation] | None = None,
                made_ms: float = 0.0) -> FunctionResult:
    """Verify proof fn `task`: make its obligations, unless the caller
    already made them, as `obs`, in `made_ms`, and prove them. `wall_ms`
    covers both."""
    t0 = time.monotonic()
    if obs is None:
        obs = generate_obligations(task, run)
    config = run.config
    results: list[tuple[Site, Outcome]] = []
    insts: Counter = Counter()
    rounds = 0
    core: set[Origin] = set()
    context_facts = 0
    for ob in obs:
        context_facts = max(context_facts, len(ob.context.facts))
        out = prove_obligation(ob, config.limits)
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
    wall = 0.0 if config.no_timing else made_ms + (time.monotonic() - t0) * 1000.0
    statuses = [o.status for _, o in results]
    if all(s == "verified" for s in statuses):
        status = "verified"
    elif "failed" in statuses:
        status = "failed"
    else:
        status = "unknown"
    return FunctionResult(task, status, results, wall, context_facts, insts,
                          rounds, frozenset(core), fact_groups)


# The resolve memo the runs inside `shared_runs()` share. A context
# variable, so a run on any other thread or context shares nothing.
_shared: ContextVar[ResolveMemo | None] = ContextVar("tunav_shared_runs",
                                                     default=None)


@contextlib.contextmanager
def shared_runs():
    """Within the block, the `verify_program` runs of this context reuse each
    other's resolution and lowered facts (a minimizer pass, whose runs differ
    in one declaration at a time): both live in one memo, dropped when the
    block ends. What the prelude store keeps is shared by every run anyway."""
    token = _shared.set(ResolveMemo())
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


def _lower_kept_facts(run: VcgenRun):
    """Lower the facts of every instance the prelude store keeps, here, so
    that forked workers inherit them and later runs find them. A fact that
    fails to lower is left to the task that needs it, which raises as it
    would at jobs=1."""
    for inst in run.program.instances.values():
        if inst.kept and (inst.kind == "spec" or inst.decl_path in run.registry.facts):
            with contextlib.suppress(TunavError):
                run.facts_of(inst)


def _claim(todo: list[str], verify: Callable[[str], FunctionResult], lock,
           claimed) -> tuple[list[tuple[int, FunctionResult]], tuple | None]:
    """`verify` the task at each index this process claims from the shared
    counter until the counter passes the end. Return `(pairs, error)`:
    `pairs` holds `(index, result)` for every task verified. If a task
    raised, `pairs` is empty, `error` is `(index, exception)` and the counter
    is stopped, so that no process claims another task."""
    pairs: list[tuple[int, FunctionResult]] = []
    while True:
        with lock:
            i = claimed.value
            claimed.value = i + 1
        if i >= len(todo):
            return pairs, None
        try:
            pairs.append((i, verify(todo[i])))
        except Exception as e:
            with lock:
                claimed.value = len(todo)
            return [], (i, e)


def _work(todo: list[str], verify: Callable[[str], FunctionResult], lock,
          claimed, out_fd: int) -> NoReturn:
    """The life of a forked worker: run `_claim`, then write one pickle of
    `(pairs, error)` to `out_fd`, with the formatted traceback added to
    `error`, and leave with `os._exit`, which neither returns into the
    caller's frames nor flushes the stdio buffers inherited from the
    parent."""
    import pickle

    code = 1
    try:
        pairs, error = _claim(todo, verify, lock, claimed)
        if error is not None:
            import traceback

            i, e = error
            error = (i, e, "".join(traceback.format_exception(e)))
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


def _fork_join(todo: list[str], workers: int,
               verify: Callable[[str], FunctionResult]) -> list[FunctionResult]:
    """`verify` each task of `todo` in `workers` processes, this one and
    `workers - 1` forked from it, and return the results in `todo` order,
    equal to those of a serial run. Each process claims the next index from
    a shared counter (`_claim`), so no task waits for any other; this one
    joins the workers once the counter has passed the end, and its own
    results are never pickled. If tasks raised, the error of the lowest
    failing index, the one a serial run raises, is re-raised: as it was
    raised, if this process raised it, else with the worker's traceback as
    its cause. No worker outlives the call: if this process's share or its
    wait is cut short, the workers left are killed and reaped."""
    import multiprocessing
    import signal

    ctx = multiprocessing.get_context("fork")
    lock, claimed = ctx.Lock(), ctx.RawValue("q", 0)
    pipes: dict[int, int] = {}  # read end of each unreaped worker's pipe -> pid
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _work(todo, verify, lock, claimed, w)
            os.close(w)  # so that EOF on `r` means the worker has exited
            pipes[r] = pid
        own, own_error = _claim(todo, verify, lock, claimed)
        payloads = _join(pipes)
    finally:
        for r, pid in pipes.items():
            os.close(r)
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if own_error is not None:
        own_error = (*own_error, None)  # no traceback: raised here
    results: list[FunctionResult] = [None] * len(todo)
    errors = []
    for pairs, error in [(own, own_error), *payloads]:
        for i, result in pairs:
            results[i] = result
        if error is not None:
            errors.append(error)
    if errors:
        _, e, tb = min(errors, key=lambda error: error[0])
        if tb is None:
            raise e
        raise e from WorkerTraceback(tb)
    return results


def _verify_tasks(todo: list[str], workers: int,
                  run: VcgenRun) -> dict[str, FunctionResult]:
    """Verify `todo` in order, as every run does, with results and errors
    that do not depend on `workers`. Step 1 looks up in the prelude store
    each task whose instance it keeps, which makes that task's obligations.
    Step 2 proves the misses: if two or more are left and fork is safe, in
    up to `workers` processes, this one and the rest forked after the kept
    facts are lowered here (`_fork_join`), else here alone. Step 3 keeps
    each result under its key from step 1, unless the time budget ended one
    of its outcomes, and the first one wins. The entry is only the result:
    the objects whose ids the key holds are the store's own
    (`_verdict_key`). So only this process reads and fills the store, and
    no process makes again the obligations made here."""
    verdicts = prelude_store().verdicts
    done: dict[str, FunctionResult] = {}
    made = {}  # miss -> (its obligations, ms spent making them)
    keys = {}  # miss -> its key, if the store can keep its result
    for t in todo:
        if run.program.verify_instance(t).kept:
            t0 = time.monotonic()
            try:
                obs = generate_obligations(t, run)
            except TunavError:
                continue  # raises again when the task is proved, in order
            ms = (time.monotonic() - t0) * 1000.0
            key = _verdict_key(t, obs, run)
            got = verdicts.get(key)  # None for a key of None
            if got is not None:
                done[t] = got
                continue
            made[t] = (obs, ms)
            if key is not None:
                keys[t] = key
    misses = [t for t in todo if t not in done]

    def verify(t: str) -> FunctionResult:
        return verify_task(t, run, *made.get(t, (None, 0.0)))

    if workers >= 2 and len(misses) >= 2 and _can_fork():
        _lower_kept_facts(run)
        results = _fork_join(misses, min(workers, len(misses)), verify)
    else:
        results = map(verify, misses)
    for t, result in zip(misses, results):
        done[t] = result
        if t in keys and all(out.reason != "time" for _, out in result.obligations):
            verdicts.setdefault(keys[t], result)
    return {t: done[t] for t in todo}


def verify_program(user_asts: list[ProgramAst], config: RunConfig,
                   tasks: list[str] | None = None) -> VerifyRun:
    """Resolve the program and verify the selected tasks (all by default) in
    dependency order (`_verify_tasks`). With `config.jobs` > 1, up to `jobs`
    processes, this one and workers forked after resolve, prove those whose
    results the prelude store does not hold, with results and errors equal
    to those of jobs=1. Where fork is unavailable or unsafe, the run is
    serial. The run pauses Python's cycle collector (`cyclegc.paused`)."""
    with cyclegc.paused():
        program, registry = resolve_with_prelude(user_asts, _shared.get())
        order = order_tasks(program, registry, config.ambient)
        user_modules = {a.module for a in user_asts}
        selected = set(tasks) if tasks is not None else None
        todo = [t for t in order.tasks if selected is None or t in selected]
        results = _verify_tasks(todo, config.jobs, VcgenRun(program, registry, config))

        user_tasks = [t for t in program.proof_fns() if module_of(t) in user_modules]
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
