"""Proof-obligation generation.

Each proof fn becomes a sequence of obligations (asserts, lemma-call
preconditions, ensures clauses), each paired with the fact context assembled
from the task's entry imports (`resolve.entry_imports`: default group, ambient
paths, module `broadcast use`), block-scoped `broadcast use` at their own
position, definitional axioms of reachable spec fns, and facts established by
preceding statements. A context holds the shared lowered fact objects, never
copies of them. The facts lowered from an instance are kept in its resolve
entry (`Program.lowered`), so they live exactly as long as that entry: for
the run, for a `driver.shared_runs()` block (a minimizer pass), or for the
process if the prelude store keeps the instance.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from tunav.engine.prover import (
    EngineFact,
    Formula,
    Limits,
    Origin,
    Outcome,
    compile_formula,
    make_fact,
    prove,
)
from tunav.errors import TunavError
from tunav.resolve import BroadcastRegistry, MonoFn, Program, entry_imports
from tunav.syntax.ast import (
    Assert,
    AssertBy,
    BinOp,
    Binder,
    Call,
    Exists,
    Expr,
    Forall,
    IntLit,
    LemmaCall,
    Let,
    Not,
    SourceSpan,
    Stmt,
    Type,
    UseStmt,
    Var,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)
from tunav import triggers as trig

BOOL = Type("bool")
INT = Type("int")


@dataclass(frozen=True)
class RunConfig:
    """The one config of a run: vcgen makes the engine's input under its
    strategy, fuel and imports; the driver reads the rest."""
    strategy: str = trig.CONSERVATIVE
    fuel: int = 1
    limits: Limits = Limits()
    no_default_prelude: bool = False
    ambient: tuple[str, ...] = ()
    usage_report: bool = False
    jobs: int = 1
    no_timing: bool = False


@dataclass
class QuantifiedFact:
    key: str  # mono fact symbol (instance identity)
    binders: list[tuple[str, Type]]
    hypothesis: Expr | None
    conclusion: Expr
    triggers: trig.TriggerSelection
    origin: Origin
    strategy: str  # the run's, for the quantifiers nested in the fact
    # the engine's form of the fact, built with it
    engine: EngineFact | None = field(default=None, repr=False, compare=False)
    # the mono symbols the conclusion calls, then those the hypothesis calls
    calls: tuple[str, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if self.engine is None:
            self.engine = make_fact(self.key, self.origin.path, self.binders,
                                    self.hypothesis, self.conclusion,
                                    [g.exprs for g in self.triggers.groups],
                                    frozenset([self.origin]), self.strategy)
        exprs = [self.conclusion]
        if self.hypothesis is not None:
            exprs.append(self.hypothesis)
        self.calls = _calls_of(exprs)


@dataclass
class FactContext:
    # hypotheses, each compiled once, when it enters, and shared by snapshots
    ground: list[tuple[Expr, Origin, Formula]] = field(default_factory=list)
    facts: list[QuantifiedFact] = field(default_factory=list)
    by_key: dict[str, QuantifiedFact] = field(default_factory=dict, repr=False)

    def add_fact(self, qf: QuantifiedFact):
        self.facts.append(qf)
        self.by_key[qf.key] = qf

    def snapshot(self) -> "FactContext":
        return FactContext(list(self.ground), list(self.facts), dict(self.by_key))


@dataclass(frozen=True)
class Site:
    kind: str  # "assert" | "ensures" | "lemma-pre"
    span: SourceSpan
    index: int = 0

    def describe(self) -> str:
        return f"{self.kind}@{self.span.file}:{self.span.line}:{self.span.col}"


@dataclass
class Obligation:
    goal: Expr
    compiled: Formula  # the goal's compiled form
    context: FactContext
    site: Site
    function: str
    params: dict[str, Type]
    strategy: str  # the trigger strategy it was made under


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def conj(exprs: list[Expr]) -> Expr | None:
    if not exprs:
        return None
    out = exprs[0]
    for e in exprs[1:]:
        out = BinOp(e.span, op="&&", lhs=out, rhs=e, ty=BOOL)
    return out


def lower_quantified_fact(inst: MonoFn, strategy: str) -> QuantifiedFact:
    """Parameters become binders, requires the hypothesis, ensures the
    conclusion; triggers validated over the conclusion (hypothesis serves as
    fallback pool for coverage)."""
    decl = inst.decl
    binders = [(p.name, p.ty) for p in decl.params]
    hyp = conj(list(decl.requires))
    concl = conj(list(decl.ensures))
    if concl is None:
        raise TunavError(f"broadcast fact {inst.symbol} has no ensures", decl.span)
    quant = trig.Quantifier([Binder(n, t) for n, t in binders],
                            list(decl.ensures), list(decl.requires))
    selection = trig.infer_triggers(quant, strategy)
    kind = "lemma" if inst.kind == "proof" else "axiom"
    origin = Origin(kind, inst.decl_path)
    return QuantifiedFact(inst.symbol, binders, hyp, concl, selection, origin,
                          strategy)


def _copy_expr(e: Expr, vars: dict[str, Expr], calls: dict[str, str]) -> Expr:
    """A copy of `e` in which every free local `Var` named in `vars` is replaced
    by its value and every call to a symbol in `calls` is redirected to the
    symbol it maps to. All other fields are copied as they are. A binder
    that occurs free in a value it would scope over is renamed to avoid
    capture: `y` becomes `y'`, a name no identifier can have."""
    if isinstance(e, Var):
        return vars.get(e.name, e) if e.resolved is None else e
    if isinstance(e, Call):
        return replace(e, args=[_copy_expr(a, vars, calls) for a in e.args],
                       resolved=calls.get(e.resolved, e.resolved))
    if isinstance(e, BinOp):
        return replace(e, lhs=_copy_expr(e.lhs, vars, calls),
                       rhs=_copy_expr(e.rhs, vars, calls))
    if isinstance(e, Not):
        return replace(e, arg=_copy_expr(e.arg, vars, calls))
    if isinstance(e, (Forall, Exists)):
        bound = {b.name for b in e.binders}
        inner = {k: v for k, v in vars.items() if k not in bound}
        taken = set().union(*map(trig.free_vars, inner.values()))
        binders = []
        for b in e.binders:
            if b.name in taken:
                # y' is free in no value: only this rename makes primed
                # names, and a binder y drops an outer y's rename from `inner`
                fresh = inner[b.name] = Var(e.span, name=b.name + "'", ty=b.ty)
                b = Binder(fresh.name, b.ty)
            binders.append(b)
        return replace(e, binders=binders, body=_copy_expr(e.body, inner, calls))
    return e


def _self_call(inst: MonoFn, symbol: str) -> Call:
    decl = inst.decl
    return Call(decl.span, name=decl.name,
                args=[Var(decl.span, name=p.name, ty=p.ty) for p in decl.params],
                resolved=symbol, ty=decl.ret)


def definitional_axiom(inst: MonoFn, fuel: int, program: Program,
                       strategy: str) -> list[QuantifiedFact]:
    """Unfolding facts for a spec fn. Non-recursive: one unconditional
    equational fact. Recursive: `fuel` levels, recursive calls at level k
    rewritten to level k-1 symbols; level 0 stays uninterpreted."""
    decl = inst.decl
    binders = [(p.name, p.ty) for p in decl.params]
    origin = Origin("definition", inst.decl_path)
    facts: list[QuantifiedFact] = []

    def eq_fact(key: str, lhs: Call, body: Expr) -> QuantifiedFact:
        op = "<==>" if decl.ret.name == "bool" else "=="
        concl = BinOp(decl.span, op=op, lhs=lhs, rhs=body, ty=BOOL)
        groups = [trig.TriggerGroup((lhs,))]
        sel = trig.TriggerSelection(groups, trig.MANUAL)
        return QuantifiedFact(key, binders, None, concl, sel, origin, strategy)

    if decl.body is None:
        if decl.ret.name == "nat":
            lhs = _self_call(inst, inst.symbol)
            zero = IntLit(decl.span, value=0, ty=INT)
            concl = BinOp(decl.span, op="<=", lhs=zero, rhs=lhs, ty=BOOL)
            sel = trig.TriggerSelection([trig.TriggerGroup((lhs,))], trig.MANUAL)
            return [QuantifiedFact(f"{inst.symbol}#range", binders, None, concl,
                                   sel, origin, strategy)]
        return []
    if fuel <= 0:
        return []
    scc = program.spec_scc.get(inst.symbol)
    if scc is None:
        return [eq_fact(inst.symbol, _self_call(inst, inst.symbol), decl.body)]
    for k in range(fuel, 0, -1):
        level_sym = inst.symbol if k == fuel else f"{inst.symbol}@{k}"
        body_k = _copy_expr(decl.body, {}, {m: f"{m}@{k - 1}" for m in scc})
        lhs = _self_call(inst, level_sym)
        facts.append(eq_fact(f"{inst.symbol}@{k}", lhs, body_k))
    return facts


# ---------------------------------------------------------------------------
# Reachable spec fns
# ---------------------------------------------------------------------------


def _call_symbols(e: Expr) -> list[str]:
    """The mono symbols `e` calls, sorted."""
    return sorted({c.resolved for c in walk_exprs(e)
                   if isinstance(c, Call) and c.resolved})


def _calls_of(exprs: Iterable[Expr]) -> tuple[str, ...]:
    """The mono symbols each of `exprs` calls, expression by expression, each
    symbol at its first place."""
    return tuple(dict.fromkeys(sym for e in exprs for sym in _call_symbols(e)))


# ---------------------------------------------------------------------------
# Context assembly and obligations
# ---------------------------------------------------------------------------


class VcgenRun:
    """What the tasks of one run share: the resolved program, its registry
    and the run's config, plus what the run works out once and only for
    itself: each import path's instances. These depend on the program, so
    they must not outlive the run; the lowered facts live in the program's
    resolve entries (`facts_of`), and each spec fn's callees come from
    resolve (`Program.demands`)."""

    def __init__(self, program: Program, registry: BroadcastRegistry,
                 config: RunConfig = RunConfig()):
        self.program = program
        self.registry = registry
        self.config = config
        self._imported: dict[str, tuple[MonoFn, ...]] = {}

    def imported(self, import_path: str) -> tuple[MonoFn, ...]:
        """Every instance of the facts named by `import_path` (a fact or
        group), in order."""
        got = self._imported.get(import_path)
        if got is None:
            got = self._imported[import_path] = tuple(
                self.program.instances[sym]
                for fact_path in self.registry.expand(import_path)
                for sym in self.program.instances_of.get(fact_path, []))
        return got

    def facts_of(self, inst: MonoFn) -> list[QuantifiedFact]:
        """What `inst` lowers to: a spec fn's definitional axioms, or a
        broadcast fn's one fact, kept in its resolve entry per strategy, fuel
        and spec SCC. Runs on other threads may share the entry, so a list
        is inserted whole, and the first one inserted is the one used."""
        config = self.config
        table = self.program.lowered[inst.symbol]
        key = (config.strategy, config.fuel, self.program.spec_scc.get(inst.symbol))
        facts = table.get(key)
        if facts is None:
            if inst.kind == "spec":
                facts = definitional_axiom(inst, config.fuel, self.program,
                                           config.strategy)
            else:
                facts = [lower_quantified_fact(inst, config.strategy)]
            facts = table.setdefault(key, facts)
        return facts

    def reachable_spec_fns(self, symbols: Iterable[str]) -> list[str]:
        """The spec fns among `symbols` and those their bodies call,
        transitively, in breadth-first order. A body's callees are the
        symbols resolve recorded its instance demanding, sorted."""
        seen: set[str] = set()
        queue = deque(symbols)
        out: list[str] = []
        while queue:
            sym = queue.popleft()
            if sym in seen:
                continue
            seen.add(sym)
            inst = self.program.instances.get(sym)
            if inst is None or inst.kind != "spec":
                continue
            out.append(sym)
            queue.extend(sorted(set(self.program.demands[sym])))
        return out


class _ObligationBuilder:
    def __init__(self, task: str, run: VcgenRun):
        self.task = task
        self.run = run
        self.program = run.program
        self.config = run.config
        self.inst = run.program.verify_instance(task)
        self.params = {p.name: p.ty for p in self.inst.decl.params}
        self.obligations: list[Obligation] = []

    # -- fact construction -------------------------------------------------------

    def _instances_for(self, import_path: str) -> list[MonoFn]:
        """The instances of `import_path` this task sees: skolem-typed ones
        only at its own skolem sorts."""
        return [inst for inst in self.run.imported(import_path)
                if not inst.owners or self.task in inst.owners]

    def import_facts(self, ctx: FactContext, import_path: str):
        """Add every instance of the facts named by `import_path` (a fact or
        group) that `ctx` lacks."""
        for inst in self._instances_for(import_path):
            if inst.symbol not in ctx.by_key:
                ctx.add_fact(self.run.facts_of(inst)[0])

    # -- obligations ----------------------------------------------------------------

    def build(self) -> list[Obligation]:
        decl = self.inst.decl
        ctx = FactContext()
        for path in entry_imports(self.program, self.run.registry, self.task,
                                  self.config.ambient,
                                  not self.config.no_default_prelude):
            self.import_facts(ctx, path)

        for p in decl.params:
            if p.ty.name == "nat":
                span = decl.span
                bound = BinOp(span, op="<=", lhs=IntLit(span, value=0, ty=INT),
                              rhs=Var(span, name=p.name, ty=INT), ty=BOOL)
                self._assume(ctx, bound, Origin("local", f"param {p.name}", span))
        for i, r in enumerate(decl.requires):
            self._assume(ctx, r, Origin("local", f"requires#{i}", r.span))

        # definitional axioms for every spec fn reachable from the function's
        # expressions or its imported facts
        self._add_definitions(ctx)

        self._walk(decl.body, ctx)

        for i, e in enumerate(decl.ensures):
            self._emit(e, ctx, Site("ensures", e.span, i))
        return self.obligations

    def _add_definitions(self, ctx: FactContext):
        decl = self.inst.decl
        exprs: list[Expr] = list(decl.requires) + list(decl.ensures)
        for s in walk_stmts(decl.body):
            exprs.extend(stmt_exprs(s))
            if isinstance(s, LemmaCall):
                callee = self.program.instances.get(s.resolved)
                if callee is not None:
                    exprs.extend(callee.decl.requires)
                    exprs.extend(callee.decl.ensures)
            if isinstance(s, UseStmt):
                for p in s.paths:
                    for inst in self._instances_for(p):
                        exprs.extend(inst.decl.requires)
                        exprs.extend(inst.decl.ensures)
        symbols = list(_calls_of(exprs))
        for qf in ctx.facts:
            symbols.extend(qf.calls)
        for sym in self.run.reachable_spec_fns(symbols):
            for qf in self.run.facts_of(self.program.instances[sym]):
                if qf.key not in ctx.by_key:
                    ctx.add_fact(qf)

    def _walk(self, stmts: list[Stmt], ctx: FactContext):
        for s in stmts:
            if isinstance(s, (Assert, AssertBy)):
                inner = ctx
                if isinstance(s, AssertBy):
                    inner = ctx.snapshot()
                    self._walk(s.body, inner)
                # compiled once: the goal here, then a hypothesis of `ctx`
                f = self._emit(s.expr, inner, Site("assert", s.span))
                self._assume(ctx, s.expr, Origin("local", "assert", s.span), f)
            elif isinstance(s, Let):
                lhs = Var(s.span, name=s.name, ty=s.expr.ty)
                eq = BinOp(s.span, op="==", lhs=lhs, rhs=s.expr, ty=BOOL)
                self._assume(ctx, eq, Origin("local", f"let {s.name}", s.span))
            elif isinstance(s, LemmaCall):
                self._lemma_call(s, ctx)
            elif isinstance(s, UseStmt):
                for p in s.paths:
                    self.import_facts(ctx, p)
            else:
                raise TunavError(f"unsupported statement {type(s).__name__}", s.span)

    def _lemma_call(self, s: LemmaCall, ctx: FactContext):
        callee = self.program.instances[s.resolved]
        mapping = {p.name: a for p, a in zip(callee.decl.params, s.args)}
        index = 0
        for p, a in zip(callee.decl.params, s.args):
            if p.ty.name == "nat":
                bound = BinOp(s.span, op="<=",
                              lhs=IntLit(s.span, value=0, ty=INT), rhs=a, ty=BOOL)
                self._emit(bound, ctx, Site("lemma-pre", s.span, index))
                index += 1
        for r in callee.decl.requires:
            self._emit(_copy_expr(r, mapping, {}), ctx,
                       Site("lemma-pre", s.span, index))
            index += 1
        for e in callee.decl.ensures:
            self._assume(ctx, _copy_expr(e, mapping, {}),
                         Origin("local", f"call {s.path}", s.span))

    def _assume(self, ctx: FactContext, e: Expr, origin: Origin,
                compiled: Formula | None = None):
        if compiled is None:
            compiled = compile_formula(e, self.config.strategy)
        ctx.ground.append((e, origin, compiled))

    def _emit(self, goal: Expr, ctx: FactContext, site: Site) -> Formula:
        """Add the obligation to prove `goal`; return its compiled form."""
        compiled = compile_formula(goal, self.config.strategy)
        self.obligations.append(Obligation(goal, compiled, ctx.snapshot(), site,
                                           self.task, self.params,
                                           self.config.strategy))
        return compiled


def generate_obligations(task: str, run: VcgenRun) -> list[Obligation]:
    """The obligations of proof fn `task`. Pass one `run` to every task of a
    run, so each import path's instances are worked out once; each fact is
    lowered, and converted to the engine's form, once per resolve entry
    (`VcgenRun.facts_of`), and each spec fn's callees are those resolve
    recorded (`Program.demands`)."""
    return _ObligationBuilder(task, run).build()


def prove_obligation(ob: Obligation, limits: Limits = Limits()) -> Outcome:
    ground = [(f, frozenset([o])) for _, o, f in ob.context.ground]
    facts = [qf.engine for qf in ob.context.facts]
    goal_origin = frozenset([Origin("goal", ob.site.describe(), ob.site.span)])
    return prove(ground, facts, ob.compiled, goal_origin, limits, ob.params)
