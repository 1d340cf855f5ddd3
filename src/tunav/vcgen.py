"""Proof-obligation generation.

Each proof fn becomes a sequence of obligations (asserts, lemma-call
preconditions, ensures clauses), each paired with the fact context assembled
from the default prelude group, scoped `broadcast use` directives, definitional
axioms of reachable spec fns, and facts established by preceding statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from tunav.engine.prover import EngineFact, Limits, Origin, Outcome, make_fact, prove
from tunav.errors import TriggerError, TunavError
from tunav.resolve import BroadcastRegistry, MonoFn, Program
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


@dataclass
class VcgenConfig:
    fuel: int = 1
    strategy: str = trig.CONSERVATIVE
    no_default_prelude: bool = False
    ambient: tuple[str, ...] = ()


@dataclass
class QuantifiedFact:
    key: str  # mono fact symbol (instance identity)
    binders: list[tuple[str, Type]]
    hypothesis: Expr | None
    conclusion: Expr
    triggers: trig.TriggerSelection
    origin: Origin
    groups_via: tuple[str, ...] = ()

    def to_engine(self) -> EngineFact:
        return make_fact(self.key, self.origin.path, self.binders,
                         self.hypothesis, self.conclusion,
                         [g.exprs for g in self.triggers.groups],
                         frozenset([self.origin]))


@dataclass
class FactContext:
    ground: list[tuple[Expr, Origin]] = field(default_factory=list)
    facts: list[QuantifiedFact] = field(default_factory=list)

    def snapshot(self) -> "FactContext":
        return FactContext(list(self.ground), list(self.facts))


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
    context: FactContext
    site: Site
    function: str
    params: dict[str, Type]


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
    return QuantifiedFact(inst.symbol, binders, hyp, concl, selection, origin)


def _rewrite_calls(e: Expr, mapping: dict[str, str]) -> Expr:
    """Deep copy with Call.resolved rewritten (fuel level lowering)."""
    if isinstance(e, Call):
        out = Call(e.span, name=e.name,
                   args=[_rewrite_calls(a, mapping) for a in e.args],
                   method_style=e.method_style, ty=e.ty,
                   trigger_mark=e.trigger_mark)
        out.resolved = mapping.get(e.resolved, e.resolved)
        return out
    if isinstance(e, BinOp):
        return BinOp(e.span, op=e.op, lhs=_rewrite_calls(e.lhs, mapping),
                     rhs=_rewrite_calls(e.rhs, mapping), ty=e.ty,
                     trigger_mark=e.trigger_mark)
    if isinstance(e, Not):
        return Not(e.span, arg=_rewrite_calls(e.arg, mapping), ty=e.ty,
                   trigger_mark=e.trigger_mark)
    if isinstance(e, Forall):
        return Forall(e.span, binders=list(e.binders),
                      body=_rewrite_calls(e.body, mapping),
                      all_triggers=e.all_triggers, ty=e.ty,
                      trigger_mark=e.trigger_mark)
    if isinstance(e, Exists):
        return Exists(e.span, binders=list(e.binders),
                      body=_rewrite_calls(e.body, mapping), ty=e.ty,
                      trigger_mark=e.trigger_mark)
    return e


def _self_call(inst: MonoFn, symbol: str) -> Call:
    decl = inst.decl
    c = Call(decl.span, name=decl.name,
             args=[Var(decl.span, name=p.name, ty=p.ty) for p in decl.params],
             ty=decl.ret)
    c.resolved = symbol
    return c


def definitional_axiom(inst: MonoFn, fuel: int,
                       program: Program) -> list[QuantifiedFact]:
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
        return QuantifiedFact(key, binders, None, concl, sel, origin)

    if decl.body is None:
        if decl.ret.name == "nat":
            lhs = _self_call(inst, inst.symbol)
            zero = IntLit(decl.span, value=0, ty=INT)
            concl = BinOp(decl.span, op="<=", lhs=zero, rhs=lhs, ty=BOOL)
            sel = trig.TriggerSelection([trig.TriggerGroup((lhs,))], trig.MANUAL)
            return [QuantifiedFact(f"{inst.symbol}#range", binders, None, concl,
                                   sel, origin)]
        return []
    if fuel <= 0:
        return []
    scc = program.spec_scc.get(inst.symbol)
    if scc is None:
        return [eq_fact(inst.symbol, _self_call(inst, inst.symbol), decl.body)]
    for k in range(fuel, 0, -1):
        level_sym = inst.symbol if k == fuel else f"{inst.symbol}@{k}"
        mapping = {m: f"{m}@{k - 1}" for m in scc} if k - 1 > 0 else \
            {m: f"{m}@0" for m in scc}
        body_k = _rewrite_calls(decl.body, mapping)
        lhs = _self_call(inst, level_sym)
        facts.append(eq_fact(f"{inst.symbol}@{k}", lhs, body_k))
    return facts


# ---------------------------------------------------------------------------
# Quantifier trigger annotation
# ---------------------------------------------------------------------------


def annotate_triggers(e: Expr, strategy: str):
    """Attach TriggerSelection to every quantifier node (best effort: nodes
    with no valid trigger raise only if the engine must instantiate them)."""
    for q in walk_exprs(e):
        if isinstance(q, (Forall, Exists)) and q.trigger_selection is None:
            quant = (trig.Quantifier.of_forall(q) if isinstance(q, Forall)
                     else trig.Quantifier.of_exists(q))
            try:
                q.trigger_selection = trig.infer_triggers(quant, strategy)
            except TriggerError:
                pass


# ---------------------------------------------------------------------------
# Reachable spec fns
# ---------------------------------------------------------------------------


def _call_symbols(e: Expr) -> list[str]:
    """The mono symbols `e` calls, sorted."""
    return sorted({c.resolved for c in walk_exprs(e)
                   if isinstance(c, Call) and c.resolved})


def reachable_spec_fns(exprs: list[Expr], program: Program) -> list[str]:
    seen: set[str] = set()
    queue: list[str] = []
    for e in exprs:
        queue.extend(_call_symbols(e))
    out: list[str] = []
    while queue:
        sym = queue.pop(0)
        if sym in seen:
            continue
        seen.add(sym)
        inst = program.instances.get(sym)
        if inst is None or inst.kind != "spec":
            continue
        out.append(sym)
        if inst.decl.body is not None:
            queue.extend(_call_symbols(inst.decl.body))
    return out


# ---------------------------------------------------------------------------
# Context assembly and obligations
# ---------------------------------------------------------------------------


def _subst_expr(e: Expr, mapping: dict[str, Expr]) -> Expr:
    if isinstance(e, Var) and e.name in mapping and e.resolved is None:
        return mapping[e.name]
    if isinstance(e, Call):
        out = Call(e.span, name=e.name,
                   args=[_subst_expr(a, mapping) for a in e.args],
                   method_style=e.method_style, ty=e.ty,
                   trigger_mark=e.trigger_mark)
        out.resolved = e.resolved
        return out
    if isinstance(e, BinOp):
        return BinOp(e.span, op=e.op, lhs=_subst_expr(e.lhs, mapping),
                     rhs=_subst_expr(e.rhs, mapping), ty=e.ty,
                     trigger_mark=e.trigger_mark)
    if isinstance(e, Not):
        return Not(e.span, arg=_subst_expr(e.arg, mapping), ty=e.ty,
                   trigger_mark=e.trigger_mark)
    if isinstance(e, Forall):
        inner = {k: v for k, v in mapping.items()
                 if k not in {b.name for b in e.binders}}
        return Forall(e.span, binders=list(e.binders),
                      body=_subst_expr(e.body, inner),
                      all_triggers=e.all_triggers, ty=e.ty,
                      trigger_mark=e.trigger_mark)
    if isinstance(e, Exists):
        inner = {k: v for k, v in mapping.items()
                 if k not in {b.name for b in e.binders}}
        return Exists(e.span, binders=list(e.binders),
                      body=_subst_expr(e.body, inner), ty=e.ty,
                      trigger_mark=e.trigger_mark)
    return e


class _ObligationBuilder:
    def __init__(self, task: str, program: Program, registry: BroadcastRegistry,
                 config: VcgenConfig):
        self.task = task
        self.program = program
        self.registry = registry
        self.config = config
        self.inst = program.verify_instance(task)
        self.obligations: list[Obligation] = []
        self._fact_cache: dict[str, QuantifiedFact] = {}

    # -- fact construction -------------------------------------------------------

    def _instances_for(self, fact_path: str) -> list[MonoFn]:
        out = []
        for sym in self.program.instances_of.get(fact_path, []):
            inst = self.program.instances[sym]
            if inst.skolem and not self._owns_skolem(inst):
                continue
            out.append(inst)
        return out

    def _owns_skolem(self, inst: MonoFn) -> bool:
        prefix = f"!{self.task}::"
        return any(t.render().find(prefix) >= 0 or t.name.startswith(prefix)
                   for t in inst.targs)

    def _fact_for(self, inst: MonoFn) -> QuantifiedFact:
        qf = self._fact_cache.get(inst.symbol)
        if qf is None:
            qf = lower_quantified_fact(inst, self.config.strategy)
            self._fact_cache[inst.symbol] = qf
        return qf

    def import_facts(self, facts: list[QuantifiedFact], import_path: str):
        """Add every instance of the facts named by `import_path` (a fact or
        group), recording the group it travelled through."""
        via = (import_path,) if import_path in self.registry.groups else ()
        for fact_path in self.registry.expand(import_path):
            for inst in self._instances_for(fact_path):
                existing = next((f for f in facts if f.key == inst.symbol), None)
                if existing is not None:
                    if via and via[0] not in existing.groups_via:
                        existing.groups_via = existing.groups_via + via
                    continue
                qf = self._fact_for(inst)
                facts.append(replace(qf, groups_via=via))

    # -- obligations ----------------------------------------------------------------

    def build(self) -> list[Obligation]:
        from tunav.resolve import PRELUDE_MODULES

        decl = self.inst.decl
        ctx = FactContext()
        if not self.config.no_default_prelude and self.registry.default_group:
            self.import_facts(ctx.facts, self.registry.default_group)
        if self.inst.module not in PRELUDE_MODULES:
            for path in self.config.ambient:
                self.import_facts(ctx.facts, path)
        for path in self.program.module_uses.get(self.inst.module, []):
            self.import_facts(ctx.facts, path)

        params = {p.name: p.ty for p in decl.params}
        for p in decl.params:
            if p.ty.name == "nat":
                span = decl.span
                bound = BinOp(span, op="<=", lhs=IntLit(span, value=0, ty=INT),
                              rhs=Var(span, name=p.name, ty=INT), ty=BOOL)
                ctx.ground.append((bound, Origin("local", f"param {p.name}", span)))
        for i, r in enumerate(decl.requires):
            ctx.ground.append((r, Origin("local", f"requires#{i}", r.span)))

        # definitional axioms for every spec fn reachable from the function's
        # expressions or its imported facts
        self._add_definitions(ctx)

        self._walk(decl.body, ctx)

        for i, e in enumerate(decl.ensures):
            self._emit(e, ctx, Site("ensures", e.span, i), params)
        self._annotate_all()
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
                    for fact_path in self.registry.expand(p):
                        for inst in self._instances_for(fact_path):
                            exprs.extend(inst.decl.requires)
                            exprs.extend(inst.decl.ensures)
        for qf in ctx.facts:
            exprs.append(qf.conclusion)
            if qf.hypothesis is not None:
                exprs.append(qf.hypothesis)
        for sym in reachable_spec_fns(exprs, self.program):
            inst = self.program.instances[sym]
            for qf in definitional_axiom(inst, self.config.fuel, self.program):
                if all(f.key != qf.key for f in ctx.facts):
                    ctx.facts.append(qf)

    def _walk(self, stmts: list[Stmt], ctx: FactContext):
        for s in stmts:
            if isinstance(s, Assert):
                self._emit(s.expr, ctx, Site("assert", s.span), self._params())
                ctx.ground.append((s.expr, Origin("local", "assert", s.span)))
            elif isinstance(s, AssertBy):
                inner = ctx.snapshot()
                self._walk(s.body, inner)
                self._emit(s.expr, inner, Site("assert", s.span), self._params())
                ctx.ground.append((s.expr, Origin("local", "assert", s.span)))
            elif isinstance(s, Let):
                lhs = Var(s.span, name=s.name, ty=s.expr.ty)
                eq = BinOp(s.span, op="==", lhs=lhs, rhs=s.expr, ty=BOOL)
                ctx.ground.append((eq, Origin("local", f"let {s.name}", s.span)))
            elif isinstance(s, LemmaCall):
                self._lemma_call(s, ctx)
            elif isinstance(s, UseStmt):
                for p in s.paths:
                    self.import_facts(ctx.facts, p)
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
                self._emit(bound, ctx, Site("lemma-pre", s.span, index),
                           self._params())
                index += 1
        for r in callee.decl.requires:
            self._emit(_subst_expr(r, mapping), ctx,
                       Site("lemma-pre", s.span, index), self._params())
            index += 1
        for e in callee.decl.ensures:
            ctx.ground.append((_subst_expr(e, mapping),
                               Origin("local", f"call {s.path}", s.span)))

    def _params(self) -> dict[str, Type]:
        return {p.name: p.ty for p in self.inst.decl.params}

    def _emit(self, goal: Expr, ctx: FactContext, site: Site,
              params: dict[str, Type]):
        self.obligations.append(
            Obligation(goal, ctx.snapshot(), site, self.task, params))

    def _annotate_all(self):
        for ob in self.obligations:
            annotate_triggers(ob.goal, self.config.strategy)
            for e, _ in ob.context.ground:
                annotate_triggers(e, self.config.strategy)
            for qf in ob.context.facts:
                annotate_triggers(qf.conclusion, self.config.strategy)
                if qf.hypothesis is not None:
                    annotate_triggers(qf.hypothesis, self.config.strategy)


def generate_obligations(task: str, program: Program, registry: BroadcastRegistry,
                         config: VcgenConfig | None = None) -> list[Obligation]:
    return _ObligationBuilder(task, program, registry,
                              config or VcgenConfig()).build()


def prove_obligation(ob: Obligation, limits: Limits = Limits(),
                     strategy: str = trig.CONSERVATIVE) -> Outcome:
    ground = [(e, frozenset([o])) for e, o in ob.context.ground]
    facts = [qf.to_engine() for qf in ob.context.facts]
    goal_origin = frozenset([Origin("goal", ob.site.describe(), ob.site.span)])
    return prove(ground, facts, ob.goal, goal_origin, limits, strategy,
                 params=ob.params)
