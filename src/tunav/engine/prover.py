"""Refutation engine: assert context + negated goal, then interleave boolean
propagation, case splitting, congruence closure, linear integer arithmetic and
trigger-driven e-matching rounds.

Case splits follow one rule: split the newest undecided disjunction first.
The newest disjunctions come from the negated goal and from the latest
instantiations, so the search works on what the goal needs before older
context clauses.

Instantiation is round-based against a frozen term graph, deduplicated by
(fact, class-representative substitution) per branch. Every asserted literal
carries a set of origins; congruence explanations and arithmetic source
tracking propagate them into the used-fact core when a branch closes.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from tunav.engine import arith
from tunav.engine.terms import EMPTY, TermGraph
from tunav.errors import TunavError
from tunav.syntax.ast import (
    BinOp,
    BoolLit,
    Call,
    Exists,
    Expr,
    Forall,
    IntLit,
    Not,
    SourceSpan,
    Type,
    Var,
)
from tunav import triggers as trig

BOOL = Type("bool")
INT = Type("int")


@dataclass(frozen=True)
class Origin:
    kind: str  # "axiom" | "lemma" | "definition" | "local" | "goal"
    path: str
    span: SourceSpan | None = None


@dataclass(frozen=True)
class Limits:
    max_rounds: int = 5
    max_instantiations: int = 10_000
    max_splits: int = 10_000
    time_budget_ms: int = 10_000

    def __post_init__(self):
        for name in ("max_rounds", "max_instantiations", "max_splits",
                     "time_budget_ms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"limit {name} must be positive")


@dataclass
class Outcome:
    status: str  # "verified" | "failed" | "unknown"
    reason: str | None  # rounds | instantiations | splits | time
    used_core: frozenset[Origin]
    instantiations: dict[str, int]
    rounds_used: int
    splits_used: int
    duration_ms: float = 0.0

    @property
    def verified(self) -> bool:
        return self.status == "verified"


@dataclass
class EngineFact:
    key: object  # identity for the instantiation log
    display: str  # counter key (origin path)
    binders: list[str]  # names
    body: Expr  # hypothesis ==> conclusion, nat bounds included
    triggers: list[tuple[Expr, ...]]
    origins: frozenset
    env: dict[str, int] = field(default_factory=dict)


def make_fact(key: object, display: str, binders: list[tuple[str, Type]],
              hyp: Expr | None, concl: Expr, trigger_groups: list[tuple[Expr, ...]],
              origins: frozenset, env: dict[str, int] | None = None) -> EngineFact:
    """Normalize a quantified fact: nat binder bounds join the hypothesis and
    the body becomes one implication expression."""
    span = concl.span
    bounds: list[Expr] = []
    for name, ty in binders:
        if ty.name == "nat" and not ty.args:
            bounds.append(BinOp(span, op="<=",
                                lhs=IntLit(span, value=0, ty=INT),
                                rhs=Var(span, name=name, ty=INT), ty=BOOL))
    hyp_all = list(bounds) + ([hyp] if hyp is not None else [])
    body = concl
    if hyp_all:
        h = hyp_all[0]
        for extra in hyp_all[1:]:
            h = BinOp(span, op="&&", lhs=h, rhs=extra, ty=BOOL)
        body = BinOp(span, op="==>", lhs=h, rhs=concl, ty=BOOL)
    return EngineFact(key, display, [n for n, _ in binders],
                      body, trigger_groups, origins, dict(env or {}))


@dataclass
class _Disj:
    items: list[tuple[Expr, bool]]
    env: dict[str, int]
    origins: frozenset


@dataclass(frozen=True)
class _ArithMemo:
    """What an arithmetic pass linearised at graph `version`: the first
    atoms' constraints, and each atom's origins and opaque leaves; `idle` if
    the pass derived nothing. Never mutated, so a state and its clones share
    it."""
    version: int
    constraints: list[arith.Constraint]
    origins: list[frozenset]
    leaves: list[list[int]]
    idle: bool


class _Shared:
    """Per-prove mutable metrics, common to all branches."""

    def __init__(self, strategy: str):
        self.inst_counts: Counter = Counter()
        self.inst_total = 0
        self.splits = 0
        self.max_rounds_seen = 0
        self.strategy = strategy


class ProverState:
    def __init__(self, shared: _Shared | None = None):
        self.graph = TermGraph()
        self.shared = shared or _Shared(trig.CONSERVATIVE)
        self.t_true = self.graph.new_term("#true", ())
        self.t_false = self.graph.new_term("#false", ())
        self.queue: list[tuple[Expr, bool, dict[str, int], frozenset]] = []
        self.arith_atoms: list[tuple[str, int, int, frozenset]] = []
        self.diseqs: list[tuple[int, int, frozenset]] = []
        self.disjs: list[_Disj] = []
        self.facts: list[EngineFact] = []
        self.fact_keys: set = set()
        self.inst_log: set = set()
        self.rounds_done = 0
        self.skolem_n = 0
        self.conflict: frozenset | None = None
        self._eq_feedback: set = set()
        self._arith: _ArithMemo | None = None

    def clone(self) -> "ProverState":
        st = ProverState.__new__(ProverState)
        st.graph = self.graph.clone()
        st.shared = self.shared
        st.t_true = self.t_true
        st.t_false = self.t_false
        st.queue = list(self.queue)
        st.arith_atoms = list(self.arith_atoms)
        st.diseqs = list(self.diseqs)
        st.disjs = list(self.disjs)
        st.facts = list(self.facts)
        st.fact_keys = set(self.fact_keys)
        st.inst_log = set(self.inst_log)
        st.rounds_done = self.rounds_done
        st.skolem_n = self.skolem_n
        st.conflict = self.conflict
        st._eq_feedback = set(self._eq_feedback)
        st._arith = self._arith
        return st

    # -- terms -----------------------------------------------------------------

    def term_of(self, e: Expr, env: dict[str, int], origins: frozenset) -> int:
        if isinstance(e, IntLit):
            return self.graph.int_term(e.value, origins)
        if isinstance(e, BoolLit):
            return self.t_true if e.value else self.t_false
        if isinstance(e, Var):
            tid = env.get(e.name)
            if tid is not None:
                return tid
            sym = e.resolved or f"%{e.name}"
            return self.graph.new_term(sym, (), origins)
        if isinstance(e, Call):
            args = tuple(self.term_of(a, env, origins) for a in e.args)
            sym = e.resolved or e.name
            return self.graph.new_term(sym, args, origins)
        if isinstance(e, BinOp) and e.op in ("+", "-", "*", "%"):
            l = self.term_of(e.lhs, env, origins)
            r = self.term_of(e.rhs, env, origins)
            t = self.graph.new_term(e.op, (l, r), origins)
            if e.op == "%":
                self._mod_range(t, r)
            return t
        raise TunavError(f"not a term: {type(e).__name__}", e.span)

    def _mod_range(self, t: int, divisor: int):
        v = self.graph.int_val.get(divisor)
        if v is not None and v > 0:
            zero = self.graph.int_term(0)
            upper = self.graph.int_term(v - 1)
            # theory-true for a positive literal divisor: 0 <= t <= v-1
            self.arith_atoms.append(("le", zero, t, EMPTY))
            self.arith_atoms.append(("le", t, upper, EMPTY))

    def lookup_term(self, e: Expr, env: dict[str, int]) -> int | None:
        if isinstance(e, IntLit):
            return self.graph.lookup(f"#i{e.value}", ())
        if isinstance(e, BoolLit):
            return self.t_true if e.value else self.t_false
        if isinstance(e, Var):
            tid = env.get(e.name)
            if tid is not None:
                return tid
            return self.graph.lookup(e.resolved or f"%{e.name}", ())
        if isinstance(e, Call):
            args = []
            for a in e.args:
                tid = self.lookup_term(a, env)
                if tid is None:
                    return None
                args.append(tid)
            return self.graph.lookup(e.resolved or e.name, tuple(args))
        if isinstance(e, BinOp) and e.op in ("+", "-", "*", "%"):
            l = self.lookup_term(e.lhs, env)
            r = self.lookup_term(e.rhs, env)
            if l is None or r is None:
                return None
            return self.graph.lookup(e.op, (l, r))
        return None

    # -- assertion ---------------------------------------------------------------

    def assert_expr(self, e: Expr, positive: bool, env: dict[str, int],
                    origins: frozenset):
        self._build_terms(e, env, origins)
        self.queue.append((e, positive, env, origins))

    def _build_terms(self, e: Expr, env: dict[str, int], origins: frozenset):
        """Eagerly create every ground term of an asserted formula (terms under
        quantifiers stay absent until instantiation)."""
        if isinstance(e, (Forall, Exists)):
            return
        if isinstance(e, Not):
            self._build_terms(e.arg, env, origins)
            return
        if isinstance(e, BinOp):
            if e.op in ("&&", "||", "==>", "<==>"):
                self._build_terms(e.lhs, env, origins)
                self._build_terms(e.rhs, env, origins)
                return
            if e.op in ("==", "!=") and _is_bool(e.lhs):
                self._build_terms(e.lhs, env, origins)
                self._build_terms(e.rhs, env, origins)
                return
            if e.op in ("==", "!=", "<", "<=", ">", ">="):
                self.term_of(e.lhs, env, origins)
                self.term_of(e.rhs, env, origins)
                return
            self.term_of(e, env, origins)
            return
        if isinstance(e, (Call, Var)):
            self.term_of(e, env, origins)

    def _dispatch(self, e: Expr, positive: bool, env: dict[str, int],
                  origins: frozenset):
        if self.conflict is not None:
            return
        if isinstance(e, BoolLit):
            if e.value != positive:
                self.conflict = origins
            return
        if isinstance(e, Not):
            self._dispatch(e.arg, not positive, env, origins)
            return
        if isinstance(e, BinOp):
            op = e.op
            if op == "&&":
                if positive:
                    self._dispatch(e.lhs, True, env, origins)
                    self._dispatch(e.rhs, True, env, origins)
                else:
                    self.disjs.append(_Disj([(e.lhs, False), (e.rhs, False)],
                                            env, origins))
                return
            if op == "||":
                if positive:
                    self.disjs.append(_Disj([(e.lhs, True), (e.rhs, True)],
                                            env, origins))
                else:
                    self._dispatch(e.lhs, False, env, origins)
                    self._dispatch(e.rhs, False, env, origins)
                return
            if op == "==>":
                if positive:
                    self.disjs.append(_Disj([(e.lhs, False), (e.rhs, True)],
                                            env, origins))
                else:
                    self._dispatch(e.lhs, True, env, origins)
                    self._dispatch(e.rhs, False, env, origins)
                return
            if op == "<==>" or (op in ("==", "!=") and _is_bool(e.lhs)):
                want = positive if op != "!=" else not positive
                if want:
                    self.disjs.append(_Disj([(e.lhs, False), (e.rhs, True)],
                                            env, origins))
                    self.disjs.append(_Disj([(e.lhs, True), (e.rhs, False)],
                                            env, origins))
                else:
                    self.disjs.append(_Disj([(e.lhs, True), (e.rhs, True)],
                                            env, origins))
                    self.disjs.append(_Disj([(e.lhs, False), (e.rhs, False)],
                                            env, origins))
                return
            if op in ("==", "!="):
                self._dispatch_eq(e, positive == (op == "=="), env, origins)
                return
            if op in ("<", "<=", ">", ">="):
                self._dispatch_cmp(e, positive, env, origins)
                return
            raise TunavError(f"cannot assert operator {op}", e.span)
        if isinstance(e, (Call, Var)):
            t = self.term_of(e, env, origins)
            target = self.t_true if positive else self.t_false
            self.graph.merge(t, target, origins)
            return
        if isinstance(e, Forall):
            if positive:
                self._register_quantifier(e, env, origins, negate=False)
            else:
                self._skolemize(e.binders, e.body, False, env, origins)
            return
        if isinstance(e, Exists):
            if positive:
                self._skolemize(e.binders, e.body, True, env, origins)
            else:
                self._register_quantifier(e, env, origins, negate=True)
            return
        raise TunavError(f"cannot assert {type(e).__name__}", e.span)

    def _dispatch_eq(self, e: BinOp, equal: bool, env, origins):
        l = self.term_of(e.lhs, env, origins)
        r = self.term_of(e.rhs, env, origins)
        is_int = _is_int(e.lhs)
        if equal:
            self.graph.merge(l, r, origins)
            if is_int:
                self.arith_atoms.append(("eq", l, r, origins))
        else:
            self.diseqs.append((l, r, origins))
            if is_int:
                # split a != b into a < b || a > b
                lt = BinOp(e.span, op="<", lhs=e.lhs, rhs=e.rhs, ty=BOOL)
                gt = BinOp(e.span, op="<", lhs=e.rhs, rhs=e.lhs, ty=BOOL)
                self.disjs.append(_Disj([(lt, True), (gt, True)], env, origins))

    def _dispatch_cmp(self, e: BinOp, positive: bool, env, origins):
        l = self.term_of(e.lhs, env, origins)
        r = self.term_of(e.rhs, env, origins)
        op = e.op
        if op == ">":
            l, r, op = r, l, "<"
        elif op == ">=":
            l, r, op = r, l, "<="
        if positive:
            kind, a, b = ("lt", l, r) if op == "<" else ("le", l, r)
        else:
            kind, a, b = ("le", r, l) if op == "<" else ("lt", r, l)
        self.arith_atoms.append((kind, a, b, origins))

    def _skolemize(self, binders, body: Expr, positive: bool, env, origins):
        env2 = dict(env)
        for b in binders:
            self.skolem_n += 1
            sym = f"!sk{self.skolem_n}"
            tid = self.graph.new_term(sym, (), origins)
            env2[b.name] = tid
            if b.ty.name == "nat":
                zero = self.graph.int_term(0)
                self.arith_atoms.append(("le", zero, tid, origins))
        self._build_terms(body, env2, origins)
        self._dispatch(body, positive, env2, origins)

    def _register_quantifier(self, q, env, origins, negate: bool):
        body = q.body
        if negate:
            body = Not(body.span, arg=body, ty=BOOL)
        fv = trig.free_vars(q.body)
        rel_env = {k: v for k, v in env.items() if k in fv}
        key = ("q", id(q), negate, tuple(sorted(rel_env.items())))
        if key in self.fact_keys:
            return
        self.fact_keys.add(key)
        quant = (trig.Quantifier.of_forall(q) if isinstance(q, Forall)
                 else trig.Quantifier.of_exists(q))
        sel = trig.infer_triggers(quant, self.shared.strategy)
        fact = make_fact(key, "<local quantifier>",
                         [(b.name, b.ty) for b in q.binders],
                         None, body,
                         [g.exprs for g in sel.groups], origins, rel_env)
        self.facts.append(fact)

    def add_fact(self, fact: EngineFact):
        if fact.key in self.fact_keys:
            return
        self.fact_keys.add(fact.key)
        self.facts.append(fact)

    # -- evaluation ----------------------------------------------------------------

    def eval_item(self, e: Expr, positive: bool, env) -> tuple[bool | None, frozenset]:
        tv, o = self._eval(e, env)
        if tv is None:
            return None, EMPTY
        return (tv if positive else not tv), o

    def _eval(self, e: Expr, env) -> tuple[bool | None, frozenset]:
        if isinstance(e, BoolLit):
            return e.value, EMPTY
        if isinstance(e, Not):
            tv, o = self._eval(e.arg, env)
            return (None, EMPTY) if tv is None else (not tv, o)
        if isinstance(e, (Forall, Exists)):
            return None, EMPTY
        if isinstance(e, (Call, Var)):
            t = self.lookup_term(e, env)
            if t is None:
                return None, EMPTY
            rt = self.graph.find(t)
            if rt == self.graph.find(self.t_true):
                return True, self.graph.explain(t, self.t_true)
            if rt == self.graph.find(self.t_false):
                return False, self.graph.explain(t, self.t_false)
            return None, EMPTY
        if isinstance(e, BinOp):
            op = e.op
            if op in ("&&", "||", "==>"):
                lv, lo = self._eval(e.lhs, env)
                rv, ro = self._eval(e.rhs, env)
                if op == "&&":
                    if lv is False:
                        return False, lo
                    if rv is False:
                        return False, ro
                    if lv is True and rv is True:
                        return True, lo | ro
                    return None, EMPTY
                if op == "||":
                    if lv is True:
                        return True, lo
                    if rv is True:
                        return True, ro
                    if lv is False and rv is False:
                        return False, lo | ro
                    return None, EMPTY
                # ==>
                if lv is False:
                    return True, lo
                if rv is True:
                    return True, ro
                if lv is True and rv is False:
                    return False, lo | ro
                return None, EMPTY
            if op == "<==>" or (op in ("==", "!=") and _is_bool(e.lhs)):
                lv, lo = self._eval(e.lhs, env)
                rv, ro = self._eval(e.rhs, env)
                if lv is None or rv is None:
                    return None, EMPTY
                same = lv == rv
                if op == "!=":
                    same = not same
                return same, lo | ro
            if op in ("==", "!="):
                tv, o = self._eval_eq(e, env)
                if tv is None:
                    return None, EMPTY
                return (tv if op == "==" else not tv), o
            if op in ("<", "<=", ">", ">="):
                return self._eval_cmp(e, env)
        return None, EMPTY

    def _eval_eq(self, e: BinOp, env) -> tuple[bool | None, frozenset]:
        l = self.lookup_term(e.lhs, env)
        r = self.lookup_term(e.rhs, env)
        if l is None or r is None:
            return None, EMPTY
        g = self.graph
        if g.find(l) == g.find(r):
            return True, g.explain(l, r)
        lv, rv = g.value_of(l), g.value_of(r)
        if lv is not None and rv is not None and lv != rv:
            vl = g.class_val[g.find(l)][1]
            vr = g.class_val[g.find(r)][1]
            return False, g.explain(l, vl) | g.explain(r, vr)
        for a, b, o in self.diseqs:
            fa, fb = g.find(a), g.find(b)
            if {fa, fb} == {g.find(l), g.find(r)}:
                if fa == g.find(l):
                    return False, o | g.explain(a, l) | g.explain(b, r)
                return False, o | g.explain(a, r) | g.explain(b, l)
        return None, EMPTY

    def _eval_cmp(self, e: BinOp, env) -> tuple[bool | None, frozenset]:
        l = self.lookup_term(e.lhs, env)
        r = self.lookup_term(e.rhs, env)
        if l is None or r is None:
            return None, EMPTY
        g = self.graph
        lv, rv = g.value_of(l), g.value_of(r)
        if lv is not None and rv is not None:
            got = {"<": lv < rv, "<=": lv <= rv, ">": lv > rv, ">=": lv >= rv}[e.op]
            vl = g.class_val[g.find(l)][1]
            vr = g.class_val[g.find(r)][1]
            return got, g.explain(l, vl) | g.explain(r, vr)
        if g.find(l) == g.find(r):
            if e.op in ("<=", ">="):
                return True, g.explain(l, r)
            return False, g.explain(l, r)
        return None, EMPTY

    # -- propagation -----------------------------------------------------------------

    def propagate(self):
        while self.conflict is None:
            if self.queue:
                e, positive, env, origins = self.queue.pop(0)
                self._dispatch(e, positive, env, origins)
                continue
            self.graph.process()
            if self.graph.conflict is not None:
                self.conflict = self.graph.conflict
                return
            if self.graph.find(self.t_true) == self.graph.find(self.t_false):
                self.conflict = self.graph.explain(self.t_true, self.t_false)
                return
            for a, b, o in self.diseqs:
                if self.graph.find(a) == self.graph.find(b):
                    self.conflict = o | self.graph.explain(a, b)
                    return
            if self._process_disjs():
                continue
            if self.queue:
                continue
            if self._arith_pass():
                continue
            break

    def _process_disjs(self) -> bool:
        changed = False
        keep: list[_Disj] = []
        for d in self.disjs:
            if self.conflict is not None:
                keep.append(d)
                continue
            satisfied = False
            falsity: frozenset = EMPTY
            unknowns: list[tuple[Expr, bool]] = []
            for item, pos in d.items:
                tv, o = self.eval_item(item, pos, d.env)
                if tv is True:
                    satisfied = True
                    break
                if tv is False:
                    falsity |= o
                else:
                    unknowns.append((item, pos))
            if satisfied:
                changed = True
                continue
            if not unknowns:
                self.conflict = d.origins | falsity
                keep.append(d)
                continue
            if len(unknowns) == 1:
                item, pos = unknowns[0]
                self._dispatch(item, pos, d.env, d.origins | falsity)
                changed = True
                continue
            keep.append(d)
        self.disjs = keep
        return changed

    def _arith_pass(self) -> bool:
        if not self.arith_atoms:
            return False
        g = self.graph
        memo = self._arith
        if memo is not None and memo.version == g.version:
            # no union since the last pass: its atoms linearise as they did
            if memo.idle and len(memo.origins) == len(self.arith_atoms):
                return False
            constraints = list(memo.constraints)
            atom_origins = list(memo.origins)
            atom_leaves = list(memo.leaves)
        else:
            constraints, atom_origins, atom_leaves = [], [], []
        for kind, l, r, origins in self.arith_atoms[len(atom_origins):]:
            used: list[tuple[int, int]] = []
            leaves: list[int] = []
            idx = len(atom_origins)
            cs = arith.atom_constraints(g, kind, l, r, idx, used, leaves)
            extra = origins
            for tid, lit in used:
                extra |= g.explain(tid, lit)
            atom_origins.append(extra)
            atom_leaves.append(leaves)
            constraints.extend(cs)

        def origins_of(sources) -> frozenset:
            acc: frozenset = EMPTY
            by_root: dict[int, list[int]] = {}
            for idx in sources:
                acc |= atom_origins[idx]
                for t in atom_leaves[idx]:
                    by_root.setdefault(g.find(t), []).append(t)
            # leaves of distinct terms that alias into one variable do so via
            # class merges; charge those equalities to the verdict
            for ts in by_root.values():
                for t in ts[1:]:
                    acc |= g.explain(ts[0], t)
            return acc

        res = arith.check_constraints(constraints)
        if res.status == arith.INCONSISTENT:
            self.conflict = origins_of(res.conflict_sources)
            return True
        changed = False
        for var_root, value, sources in res.equalities:
            fkey = (var_root, value)
            if fkey in self._eq_feedback:
                continue
            self._eq_feedback.add(fkey)
            if g.value_of(var_root) == value:
                continue
            lit = g.int_term(value)
            g.merge(g.canon[g.find(var_root)], lit, origins_of(sources))
            changed = True
        self._arith = _ArithMemo(g.version, constraints, atom_origins,
                                 atom_leaves, idle=not changed)
        return changed

    # -- e-matching --------------------------------------------------------------------

    def ematch(self, group: tuple[Expr, ...], fact: EngineFact
               ) -> list[tuple[dict[str, int], frozenset]]:
        """Every substitution (binder -> class root) making each trigger
        expression congruent to an existing term; already-logged substitutions
        are filtered by the caller."""
        binders = set(fact.binders)
        partials: list[tuple[dict[str, int], frozenset]] = [({}, EMPTY)]
        for pat in group:
            nxt: list[tuple[dict[str, int], frozenset]] = []
            for sigma, just in partials:
                for s2, j2 in self._match_top(pat, sigma, binders, fact.env):
                    nxt.append((s2, just | j2))
            partials = nxt
            if not partials:
                return []
        seen = set()
        out = []
        for sigma, just in partials:
            k = tuple(sorted(sigma.items()))
            if k not in seen:
                seen.add(k)
                out.append((sigma, just))
        return out

    def _pat_head(self, pat: Expr) -> str:
        if isinstance(pat, Call):
            return pat.resolved or pat.name
        if isinstance(pat, BinOp):
            return pat.op
        raise TunavError("invalid trigger pattern", pat.span)

    def _pat_children(self, pat: Expr) -> list[Expr]:
        if isinstance(pat, Call):
            return list(pat.args)
        return [pat.lhs, pat.rhs]

    def _match_top(self, pat: Expr, sigma: dict[str, int], binders: set[str], env):
        sym = self._pat_head(pat)
        out = []
        for t in self.graph.by_head.get(sym, []):
            for s2, j2 in self._match_node(pat, t, sigma, binders, env):
                out.append((s2, j2 | self.graph.creation_origins(t)))
        return out

    def _match_node(self, pat: Expr, t: int, sigma: dict[str, int],
                    binders: set[str], env):
        state = [(dict(sigma), EMPTY)]
        for pc, arg in zip(self._pat_children(pat), self.graph.targs[t]):
            nstate = []
            for s1, j1 in state:
                for s2, j2 in self._match_child(pc, arg, s1, binders, env):
                    nstate.append((s2, j1 | j2))
            state = nstate
            if not state:
                return []
        return state

    def _match_child(self, pat: Expr, entry: int, sigma: dict[str, int],
                     binders: set[str], env):
        g = self.graph
        cls = g.find(entry)
        if isinstance(pat, Var):
            if pat.name in binders:
                if pat.name in sigma:
                    if sigma[pat.name] != cls:
                        return []
                    return [(sigma, g.explain(entry, g.canon[cls]))]
                s2 = dict(sigma)
                s2[pat.name] = cls
                canon = g.canon[cls]
                return [(s2, g.creation_origins(canon) | g.explain(entry, canon))]
            # ground: an enclosing parameter, captured binder, or const
            tid = env.get(pat.name)
            if tid is None:
                tid = g.lookup(pat.resolved or f"%{pat.name}", ())
            if tid is None or g.find(tid) != cls:
                return []
            return [(sigma, g.explain(entry, tid))]
        if isinstance(pat, IntLit):
            tid = g.lookup(f"#i{pat.value}", ())
            if tid is None or g.find(tid) != cls:
                return []
            return [(sigma, g.explain(entry, tid))]
        if isinstance(pat, BoolLit):
            tid = self.t_true if pat.value else self.t_false
            if g.find(tid) != cls:
                return []
            return [(sigma, g.explain(entry, tid))]
        if isinstance(pat, (Call, BinOp)):
            sym = self._pat_head(pat)
            out = []
            for member in g.members[cls]:
                if g.syms[member] != sym:
                    continue
                for s2, j2 in self._match_node(pat, member, sigma, binders, env):
                    out.append((s2, j2 | g.creation_origins(member)
                                | g.explain(member, entry)))
            return out
        raise TunavError("invalid trigger pattern", pat.span)

    # -- instantiation -------------------------------------------------------------------

    def instantiate_round(self) -> int:
        """One round: match every fact's triggers against the frozen graph,
        then assert all new instances."""
        batch = []
        batch_keys = set()
        for fact in self.facts:
            for group in fact.triggers:
                for sigma, just in self.ematch(group, fact):
                    key = (fact.key,
                           tuple(sigma.get(name) for name in fact.binders))
                    if None in key[1]:
                        continue  # trigger did not bind every binder
                    if key in self.inst_log or key in batch_keys:
                        continue
                    batch_keys.add(key)
                    batch.append((fact, sigma, just, key))
        for fact, sigma, just, key in batch:
            self.inst_log.add(key)
            env2 = dict(fact.env)
            for name in fact.binders:
                env2[name] = self.graph.canon[sigma[name]]
            origins = fact.origins | just
            self.assert_expr(fact.body, True, env2, origins)
            self.shared.inst_counts[fact.display] += 1
            self.shared.inst_total += 1
        self.rounds_done += 1
        self.shared.max_rounds_seen = max(self.shared.max_rounds_seen,
                                          self.rounds_done)
        return len(batch)

    def first_pending(self) -> _Disj | None:
        """The disjunction to split next: split the newest undecided
        disjunction first, i.e. the one added most recently."""
        return self.disjs[-1] if self.disjs else None

    def split(self, d: _Disj) -> tuple["ProverState", "ProverState"]:
        """Left branch asserts the first undecided disjunct; right branch its
        negation plus the rest of the disjunction."""
        self.disjs = [x for x in self.disjs if x is not d]
        chosen = None
        rest = []
        for item, pos in d.items:
            tv, _ = self.eval_item(item, pos, d.env)
            if tv is None and chosen is None:
                chosen = (item, pos)
            else:
                rest.append((item, pos))
        if chosen is None:  # all decided: re-add and let propagation handle it
            self.disjs.append(d)
            raise TunavError("split on decided disjunction")
        right = self.clone()
        self._dispatch(chosen[0], chosen[1], d.env, d.origins)
        right._dispatch(chosen[0], not chosen[1], d.env, d.origins)
        if rest:
            right.disjs.append(_Disj(rest, d.env, d.origins))
        return self, right


def _is_bool(e: Expr) -> bool:
    return e.ty is not None and e.ty.name == "bool"


def _is_int(e: Expr) -> bool:
    """Whether `e` has the int carrier sort (nat included); an untyped term
    counts as int."""
    return e.ty is None or (e.ty.name in ("int", "nat") and not e.ty.args)


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------


def prove(ground_hyps: list[tuple[Expr, frozenset]],
          facts: list[EngineFact],
          goal: Expr,
          goal_origins: frozenset,
          limits: Limits = Limits(),
          strategy: str = trig.CONSERVATIVE,
          params: dict[str, Type] | None = None) -> Outcome:
    """Decide one obligation by refutation. Verified iff every branch closes;
    Failed on a saturated consistent branch; Unknown on any limit."""
    t0 = time.monotonic()
    shared = _Shared(strategy)
    st = ProverState(shared)
    for name in params or {}:
        st.graph.new_term(f"%{name}", ())
    for e, origins in ground_hyps:
        st.assert_expr(e, True, {}, origins)
    for f in facts:
        st.add_fact(f)
    st.assert_expr(goal, False, {}, goal_origins)

    def done(status, reason=None, core=frozenset()):
        return Outcome(status, reason, frozenset(core), dict(shared.inst_counts),
                       shared.max_rounds_seen, shared.splits,
                       (time.monotonic() - t0) * 1000.0)

    used_core: set = set()
    stack = [st]
    while stack:
        if (time.monotonic() - t0) * 1000.0 > limits.time_budget_ms:
            return done("unknown", "time")
        state = stack.pop()
        state.propagate()
        if state.conflict is not None:
            used_core |= state.conflict
            continue
        d = state.first_pending()
        if d is not None:
            if shared.splits >= limits.max_splits:
                return done("unknown", "splits")
            shared.splits += 1
            left, right = state.split(d)
            stack.append(right)
            stack.append(left)
            continue
        if state.rounds_done >= limits.max_rounds:
            return done("unknown", "rounds")
        new = state.instantiate_round()
        if shared.inst_total > limits.max_instantiations:
            return done("unknown", "instantiations")
        if new == 0:
            return done("failed")
        stack.append(state)
    return done("verified", core=used_core)
