"""Refutation engine: assert context + negated goal, then interleave boolean
propagation, case splitting, congruence closure, linear integer arithmetic and
trigger-driven e-matching rounds.

The engine consumes compiled formulas and has no trigger strategy of its
own: vcgen compiles each hypothesis, goal and fact once, under the run's
strategy (`compile_formula`, `make_fact`). A compiled formula is a term
builder and a Boolean skeleton. The builder is a list of instructions
that creates the formula's ground terms in the order a left-to-right walk
first meets them; running it under an environment gives the formula's term
slots, one term id per distinct subterm. The skeleton is the formula's
connectives and atoms as tuples over slot numbers, with each node's kind
decided at compile time. `&&`, `||` and `==>` are one node kind, a
disjunction of two sides each at a fixed polarity, so one rule dispatches
and evaluates all three; `>` and `>=` compile to `<` and `<=` with their
operands swapped. An assertion runs the builder once and queues
(skeleton, slots, env, origins); dispatch, disjunction evaluation, splits and
e-matching then read term ids, and never walk the syntax again. A nested
quantifier's node keeps the strategy; it selects triggers only when first
registered in a polarity, once, and never if it is only skolemized.

Case splits follow one rule: split the newest undecided disjunction first.
The newest disjunctions come from the negated goal and from the latest
instantiations, so the search works on what the goal needs before older
context clauses.

The left branch asserts the chosen disjunct with a fresh `decision` origin
beside the disjunction's own, and everything derived from it carries that
origin on. The right branch runs only if a conflict of the left subtree
contains it (conflict-directed backjumping). If none does, the state before
the split was refuted without the decision, so its right branch is too.
Decision origins name no source fact, so the reported core drops them.

Propagation stops at the first conflict, whichever of the term graph, a
disequality, a disjunction or the arithmetic finds it.

Instantiation is round-based against a frozen term graph, deduplicated by
(fact, class-representative substitution) per branch. A round skips a
trigger group with a pattern whose head no term carries. Every asserted
literal carries a set of origins; congruence explanations and arithmetic
source tracking propagate them into the used-fact core when a branch closes.

Each arithmetic pass linearises all of the branch's atoms against the
current classes into rows whose sources are bitmasks over the atoms, and
Fourier-Motzkin decides the whole list (`arith`). A pass keeps nothing for
the next one but its answer: a saturated branch whose last pass gave up
(`arith.UNKNOWN`) ends `unknown (arithmetic)`, not `failed`.

The time budget is checked when a branch is popped, before each arithmetic
pass, and every `_CLOCK_EVERY` matches and instances of a round; a cut
ends `unknown (time)`.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

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
    # "axiom" | "lemma" | "definition" | "local" | "goal", or "decision":
    # a split's left literal, never reported
    kind: str
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
    reason: str | None  # rounds | instantiations | splits | time | arithmetic
    used_core: frozenset[Origin]
    instantiations: dict[str, int]
    rounds_used: int
    splits_used: int
    duration_ms: float = 0.0

    @property
    def verified(self) -> bool:
        return self.status == "verified"


# ---------------------------------------------------------------------------
# compiled formulas
# ---------------------------------------------------------------------------

# term builder instructions, (kind, a, b): each makes one slot's term
T_APP = 0  # a: head symbol, b: argument slots
T_VAR = 1  # a: name, looked up in the environment first; b: its symbol
T_LIT = 2  # a: literal symbol, b: value
T_MOD = 3  # a: "%", b: argument slots; adds range atoms when it makes the term
T_BOOL = 4  # a: the value
T_BAD = 5  # a: message, b: span; raises when the builder reaches it

# skeleton nodes, tuples headed by their kind
F_ATOM = 0  # (F_ATOM, slot): a Boolean term
F_EQ = 1  # (F_EQ, l, r, is "==", int sort, l < r node, r < l node)
F_CMP = 2  # (F_CMP, l, r, strict): l < r, or l <= r; > and >= swap l and r
# (F_OR, lhs, lhs_pol, rhs, rhs_pol, pol): the node has truth value `pol`
# iff lhs has `lhs_pol` or rhs has `rhs_pol`; &&, || and ==> (_CONNECTIVES)
F_OR = 3
F_IFF = 4  # (F_IFF, lhs, rhs, negated): <==>, and == or != over bool
F_NOT = 5  # (F_NOT, arg)
F_CONST = 6  # (F_CONST, value)
F_QUANT = 7  # (F_QUANT, _Quant)
F_BAD = 8  # (F_BAD, message, span): no truth value, and cannot be asserted

# trigger pattern nodes below the top: (P_APP, head, children), (P_BIND,
# binder name), (P_GROUND, name, symbol), (P_LIT, literal symbol), (P_BOOL,
# value), (P_BAD, span) raising when a match reaches it. A top pattern is
# (head, children).
P_APP = 0
P_BIND = 1
P_GROUND = 2
P_LIT = 3
P_BOOL = 4
P_BAD = 5

# op -> (lhs_pol, rhs_pol, pol) of its F_OR node: a && b is false iff a is
# false or b is false
_CONNECTIVES = {"||": (True, True, True), "==>": (False, True, True),
                "&&": (False, False, False)}
_COMPARISONS = ("<", "<=", ">", ">=")
_TERM_OPS = ("+", "-", "*", "%")


class Formula:
    """A formula compiled once: `code` builds its ground terms into slots,
    and `skel` is its Boolean structure over those slots."""

    __slots__ = ("code", "skel")

    def __init__(self, code: tuple, skel: tuple):
        self.code = code
        self.skel = skel


class _Quant:
    """A nested quantifier of a compiled formula. Its free variables, its
    body's compiled form and, per polarity, its local fact are made on first
    use, under the formula's strategy, and kept."""

    __slots__ = ("q", "strategy", "fv", "body", "local")

    def __init__(self, q: Forall | Exists, strategy: str):
        self.q = q
        self.strategy = strategy
        self.fv: set[str] | None = None
        self.body: Formula | None = None
        self.local: list[EngineFact | None] = [None, None]  # by `negate`

    def free_vars(self) -> set[str]:
        if self.fv is None:
            self.fv = trig.free_vars(self.q.body)
        return self.fv

    def compiled_body(self) -> Formula:
        if self.body is None:
            self.body = compile_formula(self.q.body, self.strategy)
        return self.body

    def local_fact(self, negate: bool) -> EngineFact:
        """The fact a `forall`, or a negated `exists`, registers as; each
        registration binds its own key, origins and environment."""
        fact = self.local[negate]
        if fact is None:
            q = self.q
            body = q.body
            if negate:
                body = Not(body.span, arg=body, ty=BOOL)
            sel = trig.infer_triggers(
                trig.Quantifier.of_forall(q) if isinstance(q, Forall)
                else trig.Quantifier.of_exists(q), self.strategy)
            fact = self.local[negate] = make_fact(
                None, "<local quantifier>", [(b.name, b.ty) for b in q.binders],
                None, body, [g.exprs for g in sel.groups], EMPTY, self.strategy)
        return fact


def compile_formula(e: Expr, strategy: str) -> Formula:
    """`e` compiled; its nested quantifiers select triggers under `strategy`."""
    code: list[tuple] = []
    skel = _skeleton(e, code, {}, strategy)
    return Formula(tuple(code), skel)


def _skeleton(e: Expr, code: list, index: dict, strategy: str) -> tuple:
    if isinstance(e, BinOp):
        op = e.op
        if op in _CONNECTIVES:
            lhs_pol, rhs_pol, pol = _CONNECTIVES[op]
            return (F_OR, _skeleton(e.lhs, code, index, strategy), lhs_pol,
                    _skeleton(e.rhs, code, index, strategy), rhs_pol, pol)
        if op == "<==>" or (op in ("==", "!=") and _is_bool(e.lhs)):
            return (F_IFF, _skeleton(e.lhs, code, index, strategy),
                    _skeleton(e.rhs, code, index, strategy), op == "!=")
        if op in ("==", "!="):
            l = _term(e.lhs, code, index)
            r = _term(e.rhs, code, index)
            # a != b over int splits as a < b || b < a
            return (F_EQ, l, r, op == "==", _is_int(e.lhs),
                    (F_CMP, l, r, True), (F_CMP, r, l, True))
        if op in _COMPARISONS:
            l = _term(e.lhs, code, index)
            r = _term(e.rhs, code, index)
            if op[0] == ">":  # a > b is b < a; the terms are built as written
                l, r = r, l
            return (F_CMP, l, r, not op.endswith("="))
        _term(e, code, index)
        return (F_BAD, f"cannot assert operator {op}", e.span)
    if isinstance(e, (Call, Var)):
        return (F_ATOM, _term(e, code, index))
    if isinstance(e, Not):
        return (F_NOT, _skeleton(e.arg, code, index, strategy))
    if isinstance(e, BoolLit):
        return (F_CONST, e.value)
    if isinstance(e, (Forall, Exists)):
        return (F_QUANT, _Quant(e, strategy))
    return (F_BAD, f"cannot assert {type(e).__name__}", e.span)


def _term(e: Expr, code: list, index: dict) -> int:
    """The slot of term `e`, adding the instructions that build it; a
    subterm met twice gets one slot."""
    if isinstance(e, Call):
        ins = (T_APP, e.resolved or e.name,
               tuple([_term(a, code, index) for a in e.args]))
    elif isinstance(e, Var):
        ins = (T_VAR, e.name, e.resolved or f"%{e.name}")
    elif isinstance(e, IntLit):
        ins = (T_LIT, f"#i{e.value}", e.value)
    elif isinstance(e, BinOp) and e.op in _TERM_OPS:
        args = (_term(e.lhs, code, index), _term(e.rhs, code, index))
        ins = (T_MOD if e.op == "%" else T_APP, e.op, args)
    elif isinstance(e, BoolLit):
        ins = (T_BOOL, e.value, None)
    else:
        ins = (T_BAD, f"not a term: {type(e).__name__}", e.span)
    slot = index.get(ins)
    if slot is None:
        slot = index[ins] = len(code)
        code.append(ins)
    return slot


def compile_group(group: tuple[Expr, ...], binders: list[str]) -> tuple:
    """A trigger group as top patterns `(head, children)`."""
    names = set(binders)
    out = []
    for pat in group:
        if not isinstance(pat, (Call, BinOp)):
            raise TunavError("invalid trigger pattern", pat.span)
        out.append(_pattern(pat, names)[1:])
    return tuple(out)


def _pattern(pat: Expr, binders: set[str]) -> tuple:
    if isinstance(pat, Call):
        return (P_APP, pat.resolved or pat.name,
                tuple([_pattern(a, binders) for a in pat.args]))
    if isinstance(pat, BinOp):
        return (P_APP, pat.op,
                (_pattern(pat.lhs, binders), _pattern(pat.rhs, binders)))
    if isinstance(pat, Var):
        if pat.name in binders:
            return (P_BIND, pat.name)
        # ground: an enclosing parameter, captured binder, or const
        return (P_GROUND, pat.name, pat.resolved or f"%{pat.name}")
    if isinstance(pat, IntLit):
        return (P_LIT, f"#i{pat.value}")
    if isinstance(pat, BoolLit):
        return (P_BOOL, pat.value)
    return (P_BAD, pat.span)


def _is_bool(e: Expr) -> bool:
    return e.ty is not None and e.ty.name == "bool"


def _is_int(e: Expr) -> bool:
    """Whether `e` has the int carrier sort (nat included); an untyped term
    counts as int."""
    return e.ty is None or (e.ty.name in ("int", "nat") and not e.ty.args)


@dataclass
class EngineFact:
    key: object  # identity for the instantiation log
    display: str  # counter key (origin path)
    binders: list[str]  # names
    triggers: list[tuple]  # compiled trigger groups (`compile_group`)
    origins: frozenset
    compiled: Formula = field(repr=False)  # the body: hyp ==> concl, nat bounds
    env: dict[str, int] = field(default_factory=dict)


def make_fact(key: object, display: str, binders: list[tuple[str, Type]],
              hyp: Expr | None, concl: Expr, trigger_groups: list[tuple[Expr, ...]],
              origins: frozenset, strategy: str) -> EngineFact:
    """Normalize a quantified fact: nat binder bounds join the hypothesis and
    the body becomes one implication expression. The body and the trigger
    groups are compiled here, once."""
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
    names = [n for n, _ in binders]
    return EngineFact(key, display, names,
                      [compile_group(g, names) for g in trigger_groups],
                      origins, compile_formula(body, strategy))


class _Disj:
    """An undecided disjunction: skeleton items with their polarity, read
    over the slots and environment of the literal they came from."""

    __slots__ = ("items", "slots", "env", "origins")

    def __init__(self, items: list[tuple[tuple, bool]], slots: list[int],
                 env: dict[str, int], origins: frozenset):
        self.items = items
        self.slots = slots
        self.env = env
        self.origins = origins


# a round reads the clock once per this many matches, and as many instances
_CLOCK_EVERY = 256


class _OutOfTime(Exception):
    """The time budget ran out; `prove` ends the obligation `unknown (time)`."""


class _Shared:
    """Per-prove mutable metrics and the deadline, common to all branches."""

    def __init__(self, deadline: float = float("inf")):
        self.inst_counts: Counter = Counter()
        self.inst_total = 0
        self.splits = 0
        self.max_rounds_seen = 0
        self.deadline = deadline  # time.monotonic() past which work stops

    def check_time(self):
        if time.monotonic() > self.deadline:
            raise _OutOfTime


class ProverState:
    def __init__(self, shared: _Shared | None = None):
        self.graph = TermGraph()
        self.shared = shared or _Shared()
        self.t_true = self.graph.new_term("#true", ())
        self.t_false = self.graph.new_term("#false", ())
        # (skeleton, positive, slots, env, origins)
        self.queue: list[tuple[tuple, bool, list[int], dict[str, int], frozenset]] = []
        self.arith_atoms: list[tuple[str, int, int, frozenset]] = []
        self.diseqs: list[tuple[int, int, frozenset]] = []
        self.disjs: list[_Disj] = []
        self.facts: list[EngineFact] = []
        self.fact_keys: set = set()
        self.inst_log: set = set()
        self.rounds_done = 0
        self.skolem_n = 0
        self.conflict: frozenset | None = None
        # the last arithmetic pass's answer when it found no conflict
        self.arith_answer = arith.CONSISTENT

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
        st.arith_answer = self.arith_answer
        return st

    # -- terms -----------------------------------------------------------------

    def _build(self, code: tuple, env: dict[str, int], origins: frozenset
               ) -> list[int]:
        """Run a term builder: the term id of each slot, created as needed."""
        g = self.graph
        hashcons = g.hashcons
        slots: list[int] = []
        for kind, a, b in code:
            if kind == T_APP:
                args = tuple([slots[i] for i in b])
                t = hashcons.get((a, args))
                if t is None:
                    t = g.new_term(a, args, origins)
            elif kind == T_VAR:
                t = env.get(a)
                if t is None:
                    t = hashcons.get((b, ()))
                    if t is None:
                        t = g.new_term(b, (), origins)
            elif kind == T_LIT:
                t = hashcons.get((a, ()))
                if t is None:
                    t = g.new_term(a, (), origins, int_value=b)
            elif kind == T_MOD:
                args = (slots[b[0]], slots[b[1]])
                t = hashcons.get((a, args))
                if t is None:
                    t = g.new_term(a, args, origins)
                    self._mod_range(t, args[1])
            elif kind == T_BOOL:
                t = self.t_true if a else self.t_false
            else:
                raise TunavError(a, b)
            slots.append(t)
        return slots

    def _mod_range(self, t: int, divisor: int):
        v = self.graph.int_val.get(divisor)
        if v:
            zero = self.graph.int_term(0)
            upper = self.graph.int_term(abs(v) - 1)
            # theory-true for a nonzero literal divisor: 0 <= t <= |v|-1
            self.arith_atoms.append(("le", zero, t, EMPTY))
            self.arith_atoms.append(("le", t, upper, EMPTY))

    # -- assertion ---------------------------------------------------------------

    def assert_formula(self, f: Formula, positive: bool, env: dict[str, int],
                       origins: frozenset):
        """Eagerly create every ground term of a compiled formula (terms under
        quantifiers stay absent until instantiation), then queue it."""
        slots = self._build(f.code, env, origins)
        self.queue.append((f.skel, positive, slots, env, origins))

    def _dispatch(self, node: tuple, positive: bool, slots: list[int],
                  env: dict[str, int], origins: frozenset):
        if self.conflict is not None:
            return
        kind = node[0]
        if kind == F_ATOM:
            target = self.t_true if positive else self.t_false
            self.graph.merge(slots[node[1]], target, origins)
        elif kind == F_EQ:
            l, r = slots[node[1]], slots[node[2]]
            if positive == node[3]:
                self.graph.merge(l, r, origins)
                if node[4]:
                    self.arith_atoms.append(("eq", l, r, origins))
            else:
                self.diseqs.append((l, r, origins))
                if node[4]:
                    self.disjs.append(_Disj([(node[5], True), (node[6], True)],
                                            slots, env, origins))
        elif kind == F_CMP:
            l, r = slots[node[1]], slots[node[2]]
            if positive:
                self.arith_atoms.append(("lt" if node[3] else "le", l, r, origins))
            else:  # not l < r is r <= l, and not l <= r is r < l
                self.arith_atoms.append(("le" if node[3] else "lt", r, l, origins))
        elif kind == F_OR:
            _, lhs, lhs_pol, rhs, rhs_pol, pol = node
            if positive == pol:
                self.disjs.append(_Disj([(lhs, lhs_pol), (rhs, rhs_pol)],
                                        slots, env, origins))
            else:
                self._dispatch(lhs, not lhs_pol, slots, env, origins)
                self._dispatch(rhs, not rhs_pol, slots, env, origins)
        elif kind == F_IFF:
            lhs, rhs = node[1], node[2]
            same = positive != node[3]
            self.disjs.append(_Disj([(lhs, not same), (rhs, True)],
                                    slots, env, origins))
            self.disjs.append(_Disj([(lhs, same), (rhs, False)],
                                    slots, env, origins))
        elif kind == F_NOT:
            self._dispatch(node[1], not positive, slots, env, origins)
        elif kind == F_CONST:
            if node[1] != positive:
                self.conflict = origins
        elif kind == F_QUANT:
            quant = node[1]
            forall = isinstance(quant.q, Forall)
            if positive == forall:
                self._register_quantifier(quant, env, origins, negate=not forall)
            else:
                self._skolemize(quant, positive, env, origins)
        else:
            raise TunavError(node[1], node[2])

    def _skolemize(self, quant: _Quant, positive: bool, env, origins):
        env2 = dict(env)
        for b in quant.q.binders:
            self.skolem_n += 1
            sym = f"!sk{self.skolem_n}"
            tid = self.graph.new_term(sym, (), origins)
            env2[b.name] = tid
            if b.ty.name == "nat":
                zero = self.graph.int_term(0)
                self.arith_atoms.append(("le", zero, tid, origins))
        body = quant.compiled_body()
        slots = self._build(body.code, env2, origins)
        self._dispatch(body.skel, positive, slots, env2, origins)

    def _register_quantifier(self, quant: _Quant, env, origins, negate: bool):
        fv = quant.free_vars()
        rel_env = {k: v for k, v in env.items() if k in fv}
        key = ("q", id(quant.q), negate, tuple(sorted(rel_env.items())))
        if key not in self.fact_keys:
            self.add_fact(replace(quant.local_fact(negate), key=key,
                                  origins=origins, env=rel_env))

    def add_fact(self, fact: EngineFact):
        if fact.key in self.fact_keys:
            return
        self.fact_keys.add(fact.key)
        self.facts.append(fact)

    # -- evaluation ----------------------------------------------------------------

    def eval_item(self, node: tuple, positive: bool, slots: list[int]
                  ) -> tuple[bool | None, frozenset]:
        tv, o = self._eval(node, slots)
        if tv is None:
            return None, EMPTY
        return (tv if positive else not tv), o

    def _eval(self, node: tuple, slots: list[int]) -> tuple[bool | None, frozenset]:
        kind = node[0]
        if kind == F_ATOM:
            g = self.graph
            t = slots[node[1]]
            rt = g.find(t)
            if rt == g.find(self.t_true):
                return True, g.explain(t, self.t_true)
            if rt == g.find(self.t_false):
                return False, g.explain(t, self.t_false)
            return None, EMPTY
        if kind == F_EQ:
            tv, o = self._eval_eq(slots[node[1]], slots[node[2]])
            if tv is None:
                return None, EMPTY
            return (tv if node[3] else not tv), o
        if kind == F_CMP:
            return self._eval_cmp(slots[node[1]], slots[node[2]], node[3])
        if kind == F_OR:
            lv, lo = self._eval(node[1], slots)
            if lv == node[2]:
                return node[5], lo
            rv, ro = self._eval(node[3], slots)
            if rv == node[4]:
                return node[5], ro
            if lv is None or rv is None:
                return None, EMPTY
            return not node[5], lo | ro
        if kind == F_IFF:
            lv, lo = self._eval(node[1], slots)
            if lv is None:
                return None, EMPTY
            rv, ro = self._eval(node[2], slots)
            if rv is None:
                return None, EMPTY
            return (lv == rv) != node[3], lo | ro
        if kind == F_NOT:
            tv, o = self._eval(node[1], slots)
            return (None, EMPTY) if tv is None else (not tv, o)
        if kind == F_CONST:
            return node[1], EMPTY
        return None, EMPTY

    def _eval_eq(self, l: int, r: int) -> tuple[bool | None, frozenset]:
        g = self.graph
        rl, rr = g.find(l), g.find(r)
        if rl == rr:
            return True, g.explain(l, r)
        vl, vr = g.class_val.get(rl), g.class_val.get(rr)
        if vl is not None and vr is not None and vl[0] != vr[0]:
            return False, g.explain(l, vl[1]) | g.explain(r, vr[1])
        for a, b, o in self.diseqs:
            fa, fb = g.find(a), g.find(b)
            if fa == rl and fb == rr:
                return False, o | g.explain(a, l) | g.explain(b, r)
            if fa == rr and fb == rl:
                return False, o | g.explain(a, r) | g.explain(b, l)
        return None, EMPTY

    def _eval_cmp(self, l: int, r: int, strict: bool
                  ) -> tuple[bool | None, frozenset]:
        g = self.graph
        rl, rr = g.find(l), g.find(r)
        vl, vr = g.class_val.get(rl), g.class_val.get(rr)
        if vl is not None and vr is not None:
            got = vl[0] < vr[0] if strict else vl[0] <= vr[0]
            return got, g.explain(l, vl[1]) | g.explain(r, vr[1])
        if rl == rr:
            return not strict, g.explain(l, r)
        return None, EMPTY

    # -- propagation -----------------------------------------------------------------

    def propagate(self):
        while self.conflict is None:
            if self.queue:
                node, positive, slots, env, origins = self.queue.pop(0)
                self._dispatch(node, positive, slots, env, origins)
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
            if self._process_disjs() or self.conflict is not None:
                continue  # a conflict ends the loop
            self.shared.check_time()
            if not self._arith_pass():
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
            unknowns: list[tuple[tuple, bool]] = []
            for item, pos in d.items:
                tv, o = self.eval_item(item, pos, d.slots)
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
                self._dispatch(item, pos, d.slots, d.env, d.origins | falsity)
                changed = True
                continue
            keep.append(d)
        self.disjs = keep
        return changed

    def _arith_pass(self) -> bool:
        if not self.arith_atoms:
            return False
        g = self.graph
        rows: list[tuple[dict[int, int], int, int]] = []
        atoms: list[tuple[frozenset, list[int]]] = []  # (origins, leaves)
        for idx, (kind, l, r, origins) in enumerate(self.arith_atoms):
            used: list[tuple[int, int]] = []
            leaves: list[int] = []
            arith.atom_rows(g, kind, l, r, idx, rows, used, leaves)
            for tid, lit in used:
                origins |= g.explain(tid, lit)
            atoms.append((origins, leaves))

        def origins_of(sources: int) -> frozenset:
            acc: frozenset = EMPTY
            by_root: dict[int, list[int]] = {}
            for idx in arith.indices(sources):
                origins, leaves = atoms[idx]
                acc |= origins
                for t in leaves:
                    by_root.setdefault(g.find(t), []).append(t)
            # leaves of distinct terms that alias into one variable do so via
            # class merges; charge those equalities to the verdict
            for ts in by_root.values():
                for t in ts[1:]:
                    acc |= g.explain(ts[0], t)
            return acc

        res = arith.check_constraints(rows)
        if res.status == arith.INCONSISTENT:
            self.conflict = origins_of(res.conflict_sources)
            return True
        self.arith_answer = res.status
        # a pinned variable is a class without a value, and the merge gives
        # it one, so no pass pins it again
        for var_root, value, sources in res.equalities:
            lit = g.int_term(value)
            g.merge(g.canon[g.find(var_root)], lit, origins_of(sources))
        return bool(res.equalities)

    # -- e-matching --------------------------------------------------------------------

    def ematch(self, group: tuple, fact: EngineFact
               ) -> Iterator[tuple[dict[str, int], frozenset]]:
        """Every substitution (binder -> class root) making each trigger
        pattern of a compiled group congruent to an existing term, in the
        lexicographic order of the patterns' matches. Each partial
        substitution is extended depth first, so a caller that stops early
        leaves the rest unmatched. A substitution may come more than once;
        the caller keeps the first and drops those already logged."""
        return self._extend(group, 0, {}, EMPTY, fact.env)

    def _extend(self, group: tuple, i: int, sigma: dict[str, int],
                just: frozenset, env):
        """`sigma`, justified by `just`, extended by every match of the
        patterns of `group` from the `i`th on."""
        if i == len(group):
            yield sigma, just
            return
        head, children = group[i]
        last = i + 1 == len(group)
        for s2, j2 in self._match_top(head, children, sigma, env):
            if last:
                yield s2, just | j2
            else:
                yield from self._extend(group, i + 1, s2, just | j2, env)

    def _match_top(self, head: str, children: tuple, sigma: dict[str, int], env):
        g = self.graph
        out = []
        for t in g.by_head.get(head, ()):
            for s2, j2 in self._match_node(children, t, sigma, env):
                out.append((s2, j2 | g.origins[t]))
        return out

    def _match_node(self, children: tuple, t: int, sigma: dict[str, int], env):
        # a substitution is never changed once made: binding copies it
        state = [(sigma, EMPTY)]
        for pc, arg in zip(children, self.graph.targs[t]):
            nstate = []
            for s1, j1 in state:
                for s2, j2 in self._match_child(pc, arg, s1, env):
                    nstate.append((s2, j1 | j2 if j1 else j2))
            state = nstate
            if not state:
                return []
        return state

    def _match_child(self, pat: tuple, entry: int, sigma: dict[str, int], env):
        g = self.graph
        cls = g.find(entry)
        kind = pat[0]
        if kind == P_BIND:
            name = pat[1]
            if name in sigma:
                if sigma[name] != cls:
                    return []
                return [(sigma, g.explain(entry, g.canon[cls]))]
            s2 = dict(sigma)
            s2[name] = cls
            canon = g.canon[cls]
            return [(s2, g.origins[canon] | g.explain(entry, canon))]
        if kind == P_APP:
            head, children = pat[1], pat[2]
            out = []
            for member in g.members[cls]:
                if g.syms[member] != head:
                    continue
                for s2, j2 in self._match_node(children, member, sigma, env):
                    out.append((s2, j2 | g.origins[member]
                                | g.explain(member, entry)))
            return out
        if kind == P_GROUND:
            tid = env.get(pat[1])
            if tid is None:
                tid = g.lookup(pat[2], ())
        elif kind == P_LIT:
            tid = g.lookup(pat[1], ())
        elif kind == P_BOOL:
            tid = self.t_true if pat[1] else self.t_false
        else:
            raise TunavError("invalid trigger pattern", pat[1])
        if tid is None or g.find(tid) != cls:
            return []
        return [(sigma, g.explain(entry, tid))]

    # -- instantiation -------------------------------------------------------------------

    def _matches(self):
        """(fact, substitution, justification, instance key) of every match
        of every fact's trigger groups against the frozen graph, in order.
        A group with a pattern whose head has no term matches nothing, so
        it is skipped before matching starts."""
        by_head = self.graph.by_head
        for fact in self.facts:
            for group in fact.triggers:
                for head, _ in group:
                    if head not in by_head:
                        break
                else:
                    for sigma, just in self.ematch(group, fact):
                        yield fact, sigma, just, (
                            fact.key,
                            tuple([sigma.get(name) for name in fact.binders]))

    def instantiate_round(self, budget: int | None = None) -> int | None:
        """One round: match every fact's triggers against the frozen graph,
        then assert all new instances; returns how many. A round that finds
        more than `budget` new instances stops matching at the one past it,
        asserts the first `budget` and returns None."""
        batch = []
        batch_keys = set()
        capped = False
        for n, (fact, sigma, just, key) in enumerate(self._matches(), 1):
            if n % _CLOCK_EVERY == 0:
                self.shared.check_time()
            if None in key[1]:
                continue  # trigger did not bind every binder
            if key in self.inst_log or key in batch_keys:
                continue
            if len(batch) == budget:
                capped = True
                break
            batch_keys.add(key)
            batch.append((fact, sigma, just, key))
        for n, (fact, sigma, just, key) in enumerate(batch, 1):
            if n % _CLOCK_EVERY == 0:
                self.shared.check_time()
            self.inst_log.add(key)
            env2 = dict(fact.env)
            for name in fact.binders:
                env2[name] = self.graph.canon[sigma[name]]
            origins = fact.origins | just
            self.assert_formula(fact.compiled, True, env2, origins)
            self.shared.inst_counts[fact.display] += 1
            self.shared.inst_total += 1
        self.rounds_done += 1
        self.shared.max_rounds_seen = max(self.shared.max_rounds_seen,
                                          self.rounds_done)
        return None if capped else len(batch)

    def first_pending(self) -> _Disj | None:
        """The disjunction to split next: split the newest undecided
        disjunction first, i.e. the one added most recently."""
        return self.disjs[-1] if self.disjs else None

    def split(self, d: _Disj) -> tuple["ProverState", "ProverState", Origin]:
        """Left branch asserts the first undecided disjunct under a fresh
        decision origin; right branch its negation plus the rest of the
        disjunction. Returns both branches and the decision."""
        self.disjs = [x for x in self.disjs if x is not d]
        chosen = None
        rest = []
        for item, pos in d.items:
            tv, _ = self.eval_item(item, pos, d.slots)
            if tv is None and chosen is None:
                chosen = (item, pos)
            else:
                rest.append((item, pos))
        self.shared.splits += 1
        decision = Origin("decision", str(self.shared.splits))
        right = self.clone()
        self._dispatch(chosen[0], chosen[1], d.slots, d.env,
                       d.origins | {decision})
        right._dispatch(chosen[0], not chosen[1], d.slots, d.env, d.origins)
        if rest:
            right.disjs.append(_Disj(rest, d.slots, d.env, d.origins))
        return self, right, decision


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------


def _refuted(decision: Origin | None, core: set) -> bool:
    """Whether a deferred right branch is refuted already: its left
    sibling's subtree has closed, with every conflict in `core`, and none of
    them used the left branch's `decision`."""
    return decision is not None and decision not in core


def prove(ground: list[tuple[Formula, frozenset]],
          facts: list[EngineFact],
          goal: Formula,
          goal_origins: frozenset,
          limits: Limits = Limits(),
          params: dict[str, Type] | None = None) -> Outcome:
    """Decide one obligation by refutation. Verified iff every branch closes
    (a skipped right branch closes with its parent); Failed on a saturated
    consistent branch; Unknown on any limit, or on a saturated branch whose
    arithmetic gave up."""
    t0 = time.monotonic()
    shared = _Shared(t0 + limits.time_budget_ms / 1000.0)
    st = ProverState(shared)
    for name in params or {}:
        st.graph.new_term(f"%{name}", ())
    for f, origins in ground:
        st.assert_formula(f, True, {}, origins)
    keys = st.fact_keys
    for f in facts:
        if f.key not in keys:
            keys.add(f.key)
            st.facts.append(f)
    st.assert_formula(goal, False, {}, goal_origins)

    def done(status, reason=None, core=frozenset()):
        return Outcome(status, reason, frozenset(core), dict(shared.inst_counts),
                       shared.max_rounds_seen, shared.splits,
                       (time.monotonic() - t0) * 1000.0)

    used_core: set = set()
    # (state, decision): a right branch with its left sibling's decision
    stack: list[tuple[ProverState, Origin | None]] = [(st, None)]
    try:
        while stack:
            shared.check_time()
            state, decision = stack.pop()
            if _refuted(decision, used_core):
                continue
            state.propagate()
            if state.conflict is not None:
                used_core |= state.conflict
                continue
            d = state.first_pending()
            if d is not None:
                if shared.splits >= limits.max_splits:
                    return done("unknown", "splits")
                left, right, decision = state.split(d)
                stack.append((right, decision))
                stack.append((left, None))
                continue
            if state.rounds_done >= limits.max_rounds:
                return done("unknown", "rounds")
            new = state.instantiate_round(limits.max_instantiations - shared.inst_total)
            if new is None:
                return done("unknown", "instantiations")
            if new == 0:
                if state.arith_answer == arith.UNKNOWN:
                    return done("unknown", "arithmetic")
                return done("failed")
            stack.append((state, None))
    except _OutOfTime:
        return done("unknown", "time")
    # a set difference keeps the core's hashes; decisions hash cheaply
    return done("verified", core=used_core.difference(
        [o for o in used_core if o.kind == "decision"]))
