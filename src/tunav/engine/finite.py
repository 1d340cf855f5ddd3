"""Exhaustive finite-domain evaluation, used in tests as a soundness oracle
against `prove`: every quantifier ranges over [0, domain_size) and
uninterpreted functions are tabulated."""

from __future__ import annotations

import itertools

from tunav.errors import TunavError
from tunav.syntax.ast import BinOp, BoolLit, Call, Exists, Expr, Forall, IntLit, Not, Var


def eval_finite(e: Expr, domain_size: int, env: dict | None = None,
                funcs: dict | None = None):
    """Evaluate `e` with int quantifiers bounded to [0, domain_size).

    `env` maps variable names to values; `funcs` maps function symbols to
    callables or arg-tuple tables. Raises on quantifiers over non-integer
    sorts (those are unbounded here)."""
    env = env or {}
    funcs = funcs or {}

    def fn_value(sym: str, args: tuple):
        fn = funcs.get(sym)
        if fn is None:
            raise TunavError(f"eval_finite: no table for function '{sym}'")
        if callable(fn):
            return fn(*args)
        return fn[args if len(args) != 1 else args[0]]

    def ev(node: Expr, scope: dict):
        if isinstance(node, IntLit):
            return node.value
        if isinstance(node, BoolLit):
            return node.value
        if isinstance(node, Var):
            if node.name in scope:
                return scope[node.name]
            raise TunavError(f"eval_finite: unbound variable '{node.name}'")
        if isinstance(node, Call):
            args = tuple(ev(a, scope) for a in node.args)
            return fn_value(node.resolved or node.name, args)
        if isinstance(node, Not):
            return not ev(node.arg, scope)
        if isinstance(node, BinOp):
            op = node.op
            if op in ("&&", "||", "==>", "<==>"):
                l = ev(node.lhs, scope)
                r = ev(node.rhs, scope)
                return {"&&": l and r, "||": l or r,
                        "==>": (not l) or r, "<==>": l == r}[op]
            l = ev(node.lhs, scope)
            r = ev(node.rhs, scope)
            if op == "%" and r == 0:
                raise TunavError("eval_finite: modulo by zero")
            return {"+": lambda: l + r, "-": lambda: l - r, "*": lambda: l * r,
                    "%": lambda: l % abs(r), "==": lambda: l == r, "!=": lambda: l != r,
                    "<": lambda: l < r, "<=": lambda: l <= r, ">": lambda: l > r,
                    ">=": lambda: l >= r}[op]()
        if isinstance(node, (Forall, Exists)):
            for b in node.binders:
                if b.ty.name not in ("int", "nat"):
                    raise TunavError(
                        f"eval_finite: unbounded quantifier over sort {b.ty.render()}")
            names = [b.name for b in node.binders]
            domain = range(domain_size)
            combine = all if isinstance(node, Forall) else any
            return combine(
                ev(node.body, {**scope, **dict(zip(names, combo))})
                for combo in itertools.product(domain, repeat=len(names)))
        raise TunavError(f"eval_finite: cannot evaluate {type(node).__name__}")

    return ev(e, dict(env))
