"""Trigger candidate enumeration and selection.

Valid trigger subexpressions are function applications containing a quantified
variable, or arithmetic operations (+, -, *) with a quantified variable as a
direct argument. Comparisons, boolean connectives and bare variables never
qualify. Selection runs under one of three strategies: manual `#[trigger]`
marks (always win), a conservative single most-specific group, or all valid
non-redundant triggers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from tunav.errors import TriggerError
from tunav.syntax.ast import BinOp, Binder, Call, Exists, Expr, Forall, Not, Var

ARITH_TRIGGER_OPS = ("+", "-", "*")

CONSERVATIVE = "conservative"
ALL_TRIGGERS = "all_triggers"
MANUAL = "manual"


@dataclass(frozen=True)
class TriggerGroup:
    exprs: tuple[Expr, ...]

    def __post_init__(self):
        if not self.exprs:
            raise TriggerError("empty trigger group")


@dataclass
class TriggerSelection:
    groups: list[TriggerGroup]
    strategy_used: str  # manual | conservative | all_triggers
    warnings: list[str] = field(default_factory=list)


@dataclass
class Quantifier:
    """A universal quantifier as the trigger selector sees it.

    `primary` is the preferred candidate pool (a quantifier body, or a lowered
    fact's conclusion); `secondary` (the hypothesis) is consulted only when the
    primary pool cannot cover all binders.
    """

    binders: list[Binder]
    primary: list[Expr]
    secondary: list[Expr] = field(default_factory=list)
    all_triggers_attr: bool = False

    @staticmethod
    def of_forall(q: Forall) -> "Quantifier":
        return Quantifier(q.binders, [q.body], [], q.all_triggers)

    @staticmethod
    def of_exists(q: Exists) -> "Quantifier":
        # Used when a negated existential becomes a universal at proof time.
        return Quantifier(q.binders, [q.body], [], False)


# -- structural keys ---------------------------------------------------------


def expr_key(e: Expr):
    """Structural identity; commutative arithmetic arguments are sorted so
    `i + 1` and `1 + i` compare equal for redundancy purposes."""
    if isinstance(e, Var):
        return ("v", e.name)
    if isinstance(e, Call):
        return ("c", e.resolved or e.name, tuple(expr_key(a) for a in e.args))
    if isinstance(e, BinOp):
        lhs, rhs = expr_key(e.lhs), expr_key(e.rhs)
        if e.op in ("+", "*") and repr(rhs) < repr(lhs):
            lhs, rhs = rhs, lhs
        return ("o", e.op, lhs, rhs)
    if isinstance(e, Not):
        return ("n", expr_key(e.arg))
    if isinstance(e, (Forall, Exists)):
        return ("q", id(e))
    # literals
    return ("l", type(e).__name__, getattr(e, "value", None))


def expr_size(e: Expr) -> int:
    n = 1
    if isinstance(e, Call):
        n += sum(expr_size(a) for a in e.args)
    elif isinstance(e, BinOp):
        n += expr_size(e.lhs) + expr_size(e.rhs)
    elif isinstance(e, Not):
        n += expr_size(e.arg)
    elif isinstance(e, (Forall, Exists)):
        n += expr_size(e.body)
    return n


def _head(e: Expr) -> str | None:
    if isinstance(e, Call):
        return e.resolved or e.name
    if isinstance(e, BinOp) and e.op in ARITH_TRIGGER_OPS:
        return e.op
    return None


def _free_var_names(e: Expr, out: set[str]):
    if isinstance(e, Var):
        out.add(e.name)
    elif isinstance(e, Call):
        for a in e.args:
            _free_var_names(a, out)
    elif isinstance(e, BinOp):
        _free_var_names(e.lhs, out)
        _free_var_names(e.rhs, out)
    elif isinstance(e, Not):
        _free_var_names(e.arg, out)
    elif isinstance(e, (Forall, Exists)):
        inner: set[str] = set()
        _free_var_names(e.body, inner)
        out |= inner - {b.name for b in e.binders}


def free_vars(e: Expr) -> set[str]:
    out: set[str] = set()
    _free_var_names(e, out)
    return out


def _contains_quantifier(e: Expr) -> bool:
    if isinstance(e, (Forall, Exists)):
        return True
    if isinstance(e, Call):
        return any(_contains_quantifier(a) for a in e.args)
    if isinstance(e, BinOp):
        return _contains_quantifier(e.lhs) or _contains_quantifier(e.rhs)
    if isinstance(e, Not):
        return _contains_quantifier(e.arg)
    return False


@dataclass
class _Candidate:
    expr: Expr
    pos: int  # enumeration order (source order)
    vars: frozenset[str]  # binder vars mentioned
    is_call: bool


def _walk_no_inner_quantifiers(e: Expr):
    """Preorder subterms, not descending into nested quantifier bodies."""
    yield e
    if isinstance(e, Call):
        for a in e.args:
            yield from _walk_no_inner_quantifiers(a)
    elif isinstance(e, BinOp):
        yield from _walk_no_inner_quantifiers(e.lhs)
        yield from _walk_no_inner_quantifiers(e.rhs)
    elif isinstance(e, Not):
        yield from _walk_no_inner_quantifiers(e.arg)


def _enumerate(binders: set[str], pools: list[Expr]) -> list[_Candidate]:
    seen: set = set()
    out: list[_Candidate] = []
    pos = 0
    for pool in pools:
        for sub in _walk_no_inner_quantifiers(pool):
            pos += 1
            mentioned = frozenset(free_vars(sub) & binders)
            ok = False
            if isinstance(sub, Call) and mentioned and not _contains_quantifier(sub):
                ok = True
            elif (isinstance(sub, BinOp) and sub.op in ARITH_TRIGGER_OPS
                  and not _contains_quantifier(sub)):
                direct = any(isinstance(a, Var) and a.name in binders
                             for a in (sub.lhs, sub.rhs))
                ok = direct
            if not ok:
                continue
            key = expr_key(sub)
            if key in seen:
                continue
            seen.add(key)
            out.append(_Candidate(sub, pos, mentioned, isinstance(sub, Call)))
    return out


# -- selection ----------------------------------------------------------------


def _covers(cands: list[_Candidate], binders: set[str]) -> bool:
    got: set[str] = set()
    for c in cands:
        got |= c.vars
    return got >= binders


def _is_subterm(b: Expr, a: Expr) -> bool:
    bk = expr_key(b)
    return any(expr_key(sub) == bk for sub in _walk_no_inner_quantifiers(a))


def _group_subsumes(b: tuple[Expr, ...], a: tuple[Expr, ...]) -> bool:
    """True when every expression of `b` is a subterm of some expression of `a`
    (so group `a` is redundant: whenever `a` matches, `b` matched already)."""
    return all(any(_is_subterm(be, ae) for ae in a) for be in b)


def _prune_redundant(groups: list[tuple[_Candidate, ...]]) -> list[tuple[_Candidate, ...]]:
    ordered = sorted(groups, key=lambda g: (sum(expr_size(c.expr) for c in g),
                                            tuple(c.pos for c in g)))
    retained: list[tuple[_Candidate, ...]] = []
    for g in ordered:
        ge = tuple(c.expr for c in g)
        redundant = False
        for h in retained:
            he = tuple(c.expr for c in h)
            if _group_subsumes(he, ge) or _group_subsumes(ge, he):
                redundant = True
                break
        if not redundant:
            retained.append(g)
    retained.sort(key=lambda g: tuple(c.pos for c in g))
    return retained


def _collect_marks(pools: list[Expr]) -> list[Expr]:
    marks = []
    for pool in pools:
        for sub in _walk_no_inner_quantifiers(pool):
            if sub.trigger_mark:
                marks.append(sub)
    return marks


def _loop_warnings(groups: list[TriggerGroup], pools: list[Expr]) -> list[str]:
    """Syntactic matching-loop heuristic: the selected trigger occurs as a
    proper subterm of a same-head application elsewhere in the body."""
    warnings = []
    for g in groups:
        for t in g.exprs:
            h = _head(t)
            if h is None:
                continue
            tk = expr_key(t)
            for pool in pools:
                for sub in _walk_no_inner_quantifiers(pool):
                    if _head(sub) == h and expr_key(sub) != tk and _is_subterm(t, sub):
                        warnings.append(
                            f"potential matching loop: trigger {h} occurs inside "
                            f"another {h} application")
                        break
                else:
                    continue
                break
    return warnings


def _min_cover_groups(cands: list[_Candidate], binders: set[str],
                      first_only: bool) -> list[tuple[_Candidate, ...]]:
    for size in range(2, len(cands) + 1):
        found = [combo for combo in itertools.combinations(cands, size)
                 if _covers(list(combo), binders)]
        if found:
            return found[:1] if first_only else found
    return []


def infer_triggers(q: Quantifier, strategy: str) -> TriggerSelection:
    """Select trigger groups for `q`. Manual `#[trigger]` marks override the
    strategy; `#![all_triggers]` on the quantifier overrides a conservative
    global default."""
    binders = {b.name for b in q.binders}
    if not binders:
        raise TriggerError("quantifier with no binders")
    marks = _collect_marks(q.primary + q.secondary)
    if marks:
        return _manual_selection(q, binders, marks)
    if q.all_triggers_attr:
        strategy = ALL_TRIGGERS

    cands = _enumerate(binders, q.primary)
    if not _covers(cands, binders):
        cands = _enumerate(binders, q.primary + q.secondary)
    if not _covers(cands, binders):
        raise TriggerError(
            "no valid trigger: candidates do not mention every quantified variable")

    if strategy == ALL_TRIGGERS and _mixed_arith_and_calls(cands):
        # Binders used under both arithmetic and call candidates: stay
        # conservative for this quantifier.
        sel = _conservative_selection(q, binders, cands)
        sel.warnings.append("all_triggers fell back to conservative: quantified "
                            "variable used in both arithmetic and call positions")
        return sel
    if strategy == ALL_TRIGGERS:
        return _all_triggers_selection(q, binders, cands)
    if strategy == CONSERVATIVE:
        return _conservative_selection(q, binders, cands)
    raise TriggerError(f"unknown trigger strategy {strategy!r}")


def _mixed_arith_and_calls(cands: list[_Candidate]) -> bool:
    arith_vars: set[str] = set()
    call_vars: set[str] = set()
    for c in cands:
        (call_vars if c.is_call else arith_vars).update(c.vars)
    return bool(arith_vars & call_vars)


def _manual_selection(q: Quantifier, binders: set[str], marks: list[Expr]) -> TriggerSelection:
    valid_keys = {expr_key(c.expr) for c in _enumerate(binders, q.primary + q.secondary)}
    for m in marks:
        if expr_key(m) not in valid_keys:
            raise TriggerError("invalid #[trigger] annotation: not a valid trigger "
                               "subexpression", m.span)
    got: set[str] = set()
    for m in marks:
        got |= free_vars(m) & binders
    if got < binders:
        missing = ", ".join(sorted(binders - got))
        raise TriggerError(f"#[trigger] annotations do not cover quantified "
                           f"variable(s): {missing}", marks[0].span)
    groups = [TriggerGroup(tuple(marks))]
    return TriggerSelection(groups, MANUAL, _loop_warnings(groups, q.primary + q.secondary))


def _conservative_selection(q: Quantifier, binders: set[str],
                            cands: list[_Candidate]) -> TriggerSelection:
    singles = [c for c in cands if c.vars >= binders]
    if singles:
        best = min(singles, key=lambda c: (0 if c.is_call else 1,
                                           -expr_size(c.expr), c.pos))
        groups = [TriggerGroup((best.expr,))]
    else:
        combos = _min_cover_groups(cands, binders, first_only=True)
        if not combos:
            raise TriggerError("no valid trigger: no covering candidate set exists")
        groups = [TriggerGroup(tuple(c.expr for c in combos[0]))]
    return TriggerSelection(groups, CONSERVATIVE,
                            _loop_warnings(groups, q.primary + q.secondary))


def _all_triggers_selection(q: Quantifier, binders: set[str],
                            cands: list[_Candidate]) -> TriggerSelection:
    singles = [(c,) for c in cands if c.vars >= binders]
    chosen = _prune_redundant(singles) if singles else []
    if not chosen:
        multis = _min_cover_groups(cands, binders, first_only=False)
        if not multis:
            raise TriggerError("no valid trigger: no covering candidate set exists")
        chosen = _prune_redundant(multis)
    groups = [TriggerGroup(tuple(c.expr for c in g)) for g in chosen]
    return TriggerSelection(groups, ALL_TRIGGERS,
                            _loop_warnings(groups, q.primary + q.secondary))
