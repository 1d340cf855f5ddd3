"""Assert minimization: linearly scan assert sites, tentatively remove each,
re-verify, and keep only removals that do not break verification.

Removals are cumulative within the forward pass; an Unknown during a trial
counts as failure (the site is kept). Lemma calls and broadcast-use directives
are never candidates."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from tunav.driver import RunConfig, verify_program
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


def prune_asts(asts: list[ProgramAst], removed_keys: set) -> list[ProgramAst]:
    def prune_stmts(stmts: list[Stmt]) -> list[Stmt]:
        out: list[Stmt] = []
        for s in stmts:
            if isinstance(s, (Assert, AssertBy)) and s.span.key() in removed_keys:
                continue
            if isinstance(s, AssertBy):
                out.append(AssertBy(s.span, expr=s.expr, body=prune_stmts(s.body)))
            else:
                out.append(s)
        return out

    pruned = []
    for ast in asts:
        decls = []
        for d in ast.declarations:
            if isinstance(d, ProofFn):
                decls.append(ProofFn(d.span, d.name, broadcast=d.broadcast,
                                     type_params=list(d.type_params),
                                     params=list(d.params),
                                     requires=list(d.requires),
                                     ensures=list(d.ensures),
                                     body=prune_stmts(d.body)))
            else:
                decls.append(d)
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
    # sites are named by span key; verification leaves `asts` unmodified, so
    # every trial prunes the same trees
    baseline = verify_program(asts, config)
    runs = 1
    not_ok = [t for t in baseline.user_tasks
              if not baseline.results[t].passed]
    if not_ok:
        raise BaselineFailure(
            f"program does not verify before minimization: {', '.join(not_ok)}")

    sites = enumerate_assert_sites(asts)
    removed: set = set()
    removed_sites: list[AssertSite] = []
    unknown_kept: list[AssertSite] = []
    gone: set = set()  # descendants of removed assert-by blocks

    for site in sites:
        if site.span.key() in gone:
            continue
        trial = removed | {site.span.key()}
        pruned = prune_asts(asts, trial)
        tasks = None if scope == "project" else [site.function]
        run = verify_program(pruned, config, tasks=tasks)
        runs += 1
        checked = run.user_tasks if scope == "project" else [site.function]
        ok = all(run.results[t].passed for t in checked if t in run.results)
        had_unknown = any(run.results[t].status == "unknown"
                          for t in checked if t in run.results)
        if ok:
            removed = trial
            removed_sites.append(site)
            if site.kind == "assert-by":
                gone |= _descendant_keys(site, sites)
        elif had_unknown:
            unknown_kept.append(site)

    pruned = prune_asts(asts, removed)
    final_sites = enumerate_assert_sites(pruned)
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
    return report, pruned
