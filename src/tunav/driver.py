"""Verification pipeline: load sources, resolve, order tasks, prove every
obligation, and assemble per-function results, usage reports and metrics."""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from tunav.engine.prover import Limits, Origin, Outcome
from tunav.prelude import load_prelude
from tunav.resolve import (
    BroadcastRegistry,
    Program,
    TaskOrder,
    order_tasks,
    resolve_program,
)
from tunav.syntax import ProgramAst, parse_module
from tunav.vcgen import Site, VcgenConfig, generate_obligations, prove_obligation
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
    fact_groups: dict[str, tuple[str, ...]]  # fact decl path -> groups_via

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
        with open(p, encoding="utf-8") as fh:
            text = fh.read()
        asts.append(parse_module(text, p))
    return asts


def resolve_with_prelude(user_asts: list[ProgramAst]):
    asts = load_prelude() + list(user_asts)
    return resolve_program(asts)


def verify_task(task: str, program: Program, registry: BroadcastRegistry,
                config: RunConfig) -> FunctionResult:
    t0 = time.monotonic()
    obs = generate_obligations(task, program, registry, config.vcgen())
    results: list[tuple[Site, Outcome]] = []
    insts: Counter = Counter()
    rounds = 0
    core: set[Origin] = set()
    context_facts = 0
    fact_groups: dict[str, tuple[str, ...]] = {}
    for ob in obs:
        for qf in ob.context.facts:
            if qf.groups_via:
                prev = fact_groups.get(qf.origin.path, ())
                merged = prev + tuple(g for g in qf.groups_via if g not in prev)
                fact_groups[qf.origin.path] = merged
        context_facts = max(context_facts, len(ob.context.facts))
        out = prove_obligation(ob, config.limits, config.strategy)
        results.append((ob.site, out))
        insts.update(out.instantiations)
        rounds = max(rounds, out.rounds_used)
        if out.verified:
            core |= out.used_core
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


def verify_program(user_asts: list[ProgramAst], config: RunConfig,
                   tasks: list[str] | None = None) -> VerifyRun:
    program, registry = resolve_with_prelude(user_asts)
    order = order_tasks(program, registry, config.ambient)
    user_modules = {a.module for a in user_asts}
    selected = set(tasks) if tasks is not None else None
    results: dict[str, FunctionResult] = {}

    def run(task: str) -> tuple[str, FunctionResult]:
        return task, verify_task(task, program, registry, config)

    for layer in order.layers:
        todo = [t for t in layer if selected is None or t in selected]
        if not todo:
            continue
        if config.jobs <= 1:
            done = [run(t) for t in todo]
        else:
            with ThreadPoolExecutor(max_workers=config.jobs) as pool:
                done = list(pool.map(run, todo))
        for task, result in done:
            results[task] = result

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
    lines = []
    for task in (tasks if tasks is not None else run.user_tasks):
        result = run.results.get(task)
        if result is None:
            continue
        lines.append(format_function_line(result, config.no_timing))
        lines.extend(format_diagnostics(result))
        if config.usage_report and result.passed:
            lines.append(report_usage(result))
    total = sum(1 for t in (tasks if tasks is not None else run.user_tasks)
                if t in run.results)
    ok = sum(1 for t in (tasks if tasks is not None else run.user_tasks)
             if t in run.results and run.results[t].passed)
    lines.append(f"{ok}/{total} functions verified")
    return "\n".join(lines)
