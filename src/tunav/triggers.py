"""Trigger candidate enumeration and selection.

A candidate (`_is_candidate`) is a function application that mentions a
quantified variable, or an arithmetic operation (+, -, *) with a quantified
variable as a direct argument; neither may contain a quantifier. Comparisons,
boolean connectives and bare variables never qualify. Manual `#[trigger]`
marks always win, and each mark must itself be a candidate. Otherwise one
selection path runs: the candidates that cover every binder alone, else the
smallest sets of candidates that cover them together. The conservative
strategy keeps one: the best single candidate (calls before arithmetic, then
the larger, then source order), else the first smallest set. The all-triggers
strategy keeps every group that is not redundant with another.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from tunav.errors import TriggerError
from tunav.syntax.ast import (BinOp, Binder, Call, Exists, Expr, Forall, Not, Var, children,
                              walk_exprs)

ARITH_TRIGGER_OPS = ("+", "-", "*")

CONSERVATIVE = "conservative"
ALL_TRIGGERS = "all_triggers"
STRATEGIES = (CONSERVATIVE, ALL_TRIGGERS)  # a run's choices
MANUAL = "manual"


@dataclass(frozen=True)
class TriggerGroup:
    exprs: tuple[Expr, ...]

    def __post_init__(self):
        if not self.exprs:
            raise TriggerError("empty trigger group")


FALLBACK_WARNING = ("all_triggers fell back to conservative: quantified variable "
                    "used in both arithmetic and call positions")


@dataclass
class TriggerSelection:
    groups: list[TriggerGroup]
    strategy_used: str  # manual | conservative | all_triggers
    # the candidate pools the groups were chosen from, and whether
    # all-triggers fell back to conservative
    pools: list[Expr] = field(default_factory=list, repr=False)
    fell_back: bool = False

    @functools.cached_property
    def warnings(self) -> list[str]:
        """The matching-loop warnings, then the fallback's; worked out on
        first read, as nothing the verifier decides reads them."""
        warnings = _loop_warnings(self.groups, self.pools)
        if self.fell_back:
            warnings.append(FALLBACK_WARNING)
        return warnings


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


# -- terms ----------------------------------------------------------------------


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
    """The number of nodes in `e`."""
    return sum(1 for _ in walk_exprs(e))


def free_vars(e: Expr) -> set[str]:
    """The names of the variables `e` mentions outside its own quantifiers'
    binders."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (Forall, Exists)):
        return free_vars(e.body) - {b.name for b in e.binders}
    return set().union(*map(free_vars, children(e)))


def _subterms(e: Expr):
    """`e` and its subterms, preorder, not entering a nested quantifier's
    body (its terms are under other binders)."""
    yield e
    for c in children(e):
        yield from _subterms(c)


def _head(e: Expr) -> str | None:
    if isinstance(e, Call):
        return e.resolved or e.name
    if isinstance(e, BinOp) and e.op in ARITH_TRIGGER_OPS:
        return e.op
    return None


def _is_candidate(e: Expr, binders: set[str]) -> bool:
    """Whether `e` may serve as a trigger term of a quantifier over `binders`."""
    if isinstance(e, Call):
        ok = not free_vars(e).isdisjoint(binders)
    elif isinstance(e, BinOp) and e.op in ARITH_TRIGGER_OPS:
        ok = any(isinstance(a, Var) and a.name in binders for a in (e.lhs, e.rhs))
    else:
        return False
    return ok and not any(isinstance(s, (Forall, Exists)) for s in _subterms(e))


@dataclass
class _Candidate:
    expr: Expr
    pos: int  # enumeration order (source order)
    vars: frozenset[str]  # binder vars mentioned
    is_call: bool


def _enumerate(binders: set[str], pools: list[Expr]) -> list[_Candidate]:
    """The candidates of `pools` in source order, each structurally distinct
    term once."""
    seen: set = set()
    out: list[_Candidate] = []
    subterms = (sub for pool in pools for sub in _subterms(pool))
    for pos, sub in enumerate(subterms, 1):
        if _is_candidate(sub, binders):
            key = expr_key(sub)
            if key not in seen:
                seen.add(key)
                out.append(_Candidate(sub, pos, frozenset(free_vars(sub) & binders),
                                      isinstance(sub, Call)))
    return out


# -- selection ----------------------------------------------------------------


def _covers(cands, binders: set[str]) -> bool:
    return set().union(*(c.vars for c in cands)) >= binders


def _min_covers(cands: list[_Candidate], binders: set[str]) -> list[tuple[_Candidate, ...]]:
    """Every smallest set of two or more candidates that covers `binders`, in
    combination order."""
    for size in range(2, len(cands) + 1):
        found = [g for g in itertools.combinations(cands, size) if _covers(g, binders)]
        if found:
            return found
    return []


def _is_subterm(b: Expr, a: Expr) -> bool:
    bk = expr_key(b)
    return any(expr_key(sub) == bk for sub in _subterms(a))


def _group_subsumes(b: tuple[Expr, ...], a: tuple[Expr, ...]) -> bool:
    """True when every expression of `b` is a subterm of some expression of `a`
    (so group `a` is redundant: whenever `a` matches, `b` matched already)."""
    return all(any(_is_subterm(be, ae) for ae in a) for be in b)


def _prune_redundant(groups: list[tuple[_Candidate, ...]]) -> list[tuple[_Candidate, ...]]:
    """The groups that subsume no smaller kept group and are subsumed by none,
    in source order."""
    retained: list[tuple[Expr, ...]] = []
    kept = []
    for g in sorted(groups, key=lambda g: (sum(expr_size(c.expr) for c in g),
                                           tuple(c.pos for c in g))):
        ge = tuple(c.expr for c in g)
        if not any(_group_subsumes(he, ge) or _group_subsumes(ge, he) for he in retained):
            retained.append(ge)
            kept.append(g)
    return sorted(kept, key=lambda g: tuple(c.pos for c in g))


def _mixed_arith_and_calls(cands: list[_Candidate]) -> bool:
    arith_vars: set[str] = set()
    call_vars: set[str] = set()
    for c in cands:
        (call_vars if c.is_call else arith_vars).update(c.vars)
    return bool(arith_vars & call_vars)


def _loop_warnings(groups: list[TriggerGroup], pools: list[Expr]) -> list[str]:
    """Syntactic matching-loop heuristic: the selected trigger occurs as a
    proper subterm of a same-head application elsewhere in the body."""
    subs = [sub for pool in pools for sub in _subterms(pool)]
    warnings = []
    for t in (t for g in groups for t in g.exprs):
        h, tk = _head(t), expr_key(t)
        if h is not None and any(_head(sub) == h and expr_key(sub) != tk
                                 and _is_subterm(t, sub) for sub in subs):
            warnings.append(f"potential matching loop: trigger {h} occurs inside "
                            f"another {h} application")
    return warnings


def infer_triggers(q: Quantifier, strategy: str) -> TriggerSelection:
    """Select trigger groups for `q`. Manual `#[trigger]` marks override the
    strategy; `#![all_triggers]` on the quantifier overrides a conservative
    global default."""
    binders = {b.name for b in q.binders}
    if not binders:
        raise TriggerError("quantifier with no binders")
    pools = q.primary + q.secondary
    marks = [sub for pool in pools for sub in _subterms(pool) if sub.trigger_mark]
    fell_back = False
    if marks:
        for m in marks:
            if not _is_candidate(m, binders):
                raise TriggerError("invalid #[trigger] annotation: not a valid trigger "
                                   "subexpression", m.span)
        missing = binders - set().union(*map(free_vars, marks))
        if missing:
            raise TriggerError(f"#[trigger] annotations do not cover quantified "
                               f"variable(s): {', '.join(sorted(missing))}", marks[0].span)
        groups, strategy = [TriggerGroup(tuple(marks))], MANUAL
    else:
        cands = _enumerate(binders, q.primary)
        if not _covers(cands, binders):
            cands = _enumerate(binders, pools)
            if not _covers(cands, binders):
                raise TriggerError("no valid trigger: candidates do not mention every "
                                   "quantified variable")
        if q.all_triggers_attr:
            strategy = ALL_TRIGGERS
        if strategy == ALL_TRIGGERS and _mixed_arith_and_calls(cands):
            # Binders used under both arithmetic and call candidates: stay
            # conservative for this quantifier.
            strategy, fell_back = CONSERVATIVE, True
        elif strategy not in STRATEGIES:
            raise TriggerError(f"unknown trigger strategy {strategy!r}")
        # The candidates covering every binder alone, else the smallest
        # covering sets; the earlier coverage check makes the latter nonempty.
        singles = [c for c in cands if c.vars >= binders]
        if strategy == CONSERVATIVE:
            chosen = ([(min(singles, key=lambda c: (not c.is_call, -expr_size(c.expr), c.pos)),)]
                      if singles else _min_covers(cands, binders)[:1])
        else:
            chosen = _prune_redundant([(c,) for c in singles] or _min_covers(cands, binders))
        groups = [TriggerGroup(tuple(c.expr for c in g)) for g in chosen]
    return TriggerSelection(groups, strategy, pools, fell_back)
