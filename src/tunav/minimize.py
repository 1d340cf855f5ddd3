"""Assert minimization: linearly scan assert sites, tentatively remove each,
re-verify, and keep only removals that do not break verification.

Removals are cumulative within the forward pass; an Unknown during a trial,
or a re-verified task without a verdict, counts as failure (the site is
kept). Lemma calls and broadcast-use directives are never candidates.

Each trial drops one site from the last accepted program, so it shares every
other declaration object with it; the pass's runs reuse each other's
resolution of those (`driver.shared_runs`), and with it the facts lowered
from their instances, which live in the instances' resolve records until the
pass ends. A trial's program is made from the last run's: only the function
that lost a site is checked again, and in it only its `let`s and the
`assert ... by` block, if any, that lost the site; every other clause and
statement is taken from the pass's memo. The last task order stands when no
`broadcast use` or lemma call changed. If the removal keeps the sorts and
the symbols that function demands, and the order in which resolve first
meets them, the last run's instances stand and only that function's are
remade; otherwise the memo's records are drained again from the roots
(`resolve._Resolver.reuse`)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from tunav.driver import RunConfig, shared_runs, verify_program
from tunav.errors import BaselineFailure
from tunav.syntax.ast import (
    Assert,
    AssertBy,
    ProgramAst,
    ProofFn,
    SourceSpan,
    Stmt,
    walk_stmts,
)


@dataclass(frozen=True)
class AssertSite:
    span: SourceSpan
    kind: str  # "assert" | "assert-by"
    function: str
    ordinal: int


@dataclass
class MinimizationReport:
    original_count: int
    surviving_count: int
    removed: list[AssertSite]
    per_function: dict[str, tuple[int, int]]  # function -> (original, surviving)
    runs: int
    wall_ms: float
    unknown_kept: list[AssertSite] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"{'function':<48} {'original':>8} {'surviving':>9}"]
        for fn, (orig, surv) in sorted(self.per_function.items()):
            lines.append(f"{fn:<48} {orig:>8} {surv:>9}")
        lines.append(f"{'total':<48} {self.original_count:>8} "
                     f"{self.surviving_count:>9}")
        lines.append(f"re-verification runs: {self.runs}, "
                     f"wall time: {self.wall_ms:.0f} ms")
        if self.unknown_kept:
            lines.append(f"sites kept due to Unknown outcomes: "
                         f"{len(self.unknown_kept)}")
        return "\n".join(lines)


def enumerate_assert_sites(asts: list[ProgramAst]) -> list[AssertSite]:
    """Assert/AssertBy sites in source order; an AssertBy precedes its nested
    sites."""
    sites: list[AssertSite] = []
    for ast in asts:
        for d in ast.declarations:
            if not isinstance(d, ProofFn):
                continue
            fn = f"{ast.module}::{d.name}"
            for s in walk_stmts(d.body):
                if isinstance(s, (Assert, AssertBy)):
                    kind = "assert-by" if isinstance(s, AssertBy) else "assert"
                    sites.append(AssertSite(s.span, kind, fn, len(sites)))
    return sites


def _prune_stmts(stmts: list[Stmt], removed_keys: set) -> list[Stmt]:
    out: list[Stmt] = []
    for s in stmts:
        if isinstance(s, (Assert, AssertBy)) and s.span.key() in removed_keys:
            continue
        if isinstance(s, AssertBy):
            body = _prune_stmts(s.body, removed_keys)
            if body is not s.body:
                s = AssertBy(s.span, expr=s.expr, body=body)
        out.append(s)
    same = len(out) == len(stmts) and all(a is b for a, b in zip(out, stmts))
    return stmts if same else out


def _prune_decl(d, removed_keys: set):
    if not isinstance(d, ProofFn):
        return d
    body = _prune_stmts(d.body, removed_keys)
    return d if body is d.body else replace(d, body=body)


def prune_asts(asts: list[ProgramAst], removed_keys: set) -> list[ProgramAst]:
    """`asts` without the assert sites whose span keys are in `removed_keys`.
    Every module, declaration and statement list that loses no site is
    returned as the same object. Module-level helpers, not closures: a
    self-recursive closure is a reference cycle, which only the cycle
    collector frees, and it is paused in most of a pass."""
    pruned = []
    for ast in asts:
        decls = [_prune_decl(d, removed_keys) for d in ast.declarations]
        if all(a is b for a, b in zip(decls, ast.declarations)):
            pruned.append(ast)
        else:
            pruned.append(ProgramAst(ast.path, ast.module, decls))
    return pruned


def _descendant_keys(site: AssertSite, sites: list[AssertSite]) -> set:
    return {s.span.key() for s in sites
            if s is not site
            and s.span.file == site.span.file
            and site.span.start <= s.span.start and s.span.end <= site.span.end}


def minimize(asts: list[ProgramAst], config: RunConfig,
             scope: str = "function") -> tuple[MinimizationReport, list[ProgramAst]]:
    """Forward pass over assert sites with cumulative removals. `scope` is
    "function" (re-verify only the containing function per trial) or "project"
    (re-verify everything per trial)."""
    t0 = time.monotonic()
    with shared_runs():
        baseline = verify_program(asts, config)
        runs = 1
        not_ok = [t for t in baseline.user_tasks
                  if not baseline.results[t].passed]
        if not_ok:
            raise BaselineFailure(
                f"program does not verify before minimization: {', '.join(not_ok)}")

        # sites are named by span key; verification leaves the trees it is
        # given unmodified, so each trial prunes the last accepted ones
        sites = enumerate_assert_sites(asts)
        current = list(asts)
        removed_sites: list[AssertSite] = []
        unknown_kept: list[AssertSite] = []
        gone: set = set()  # descendants of removed assert-by blocks

        for site in sites:
            if site.span.key() in gone:
                continue
            pruned = prune_asts(current, {site.span.key()})
            tasks = None if scope == "project" else [site.function]
            run = verify_program(pruned, config, tasks=tasks)
            runs += 1
            checked = run.user_tasks if scope == "project" else [site.function]
            verdicts = [run.results.get(t) for t in checked]
            if all(r is not None and r.passed for r in verdicts):
                current = pruned
                removed_sites.append(site)
                if site.kind == "assert-by":
                    gone |= _descendant_keys(site, sites)
            elif any(r is not None and r.status == "unknown" for r in verdicts):
                unknown_kept.append(site)

    final_sites = enumerate_assert_sites(current)
    per_function: dict[str, tuple[int, int]] = {}
    for s in sites:
        orig, surv = per_function.get(s.function, (0, 0))
        per_function[s.function] = (orig + 1, surv)
    for s in final_sites:
        orig, surv = per_function.get(s.function, (0, 0))
        per_function[s.function] = (orig, surv + 1)
    report = MinimizationReport(
        original_count=len(sites),
        surviving_count=len(final_sites),
        removed=removed_sites,
        per_function=per_function,
        runs=runs,
        wall_ms=0.0 if config.no_timing else (time.monotonic() - t0) * 1000.0,
        unknown_kept=unknown_kept,
    )
    return report, current
