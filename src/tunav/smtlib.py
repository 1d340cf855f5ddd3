"""SMT-LIB 2 emission: one standalone script per obligation, with quantified
facts carrying :pattern annotations and :named labels for core extraction by
an external solver. Nested `forall`s get the patterns that the strategy an
obligation was made under selects. Exists for differential testing; not
bit-exact."""

from __future__ import annotations

import os
import re

from tunav import triggers as trig
from tunav.errors import TriggerError
from tunav.syntax.ast import (
    BinOp,
    BoolLit,
    Call,
    Exists,
    Expr,
    Forall,
    IntLit,
    Not,
    Type,
    Var,
)
from tunav.vcgen import Obligation, QuantifiedFact


def _smt_sort(t: Type | None) -> str:
    if t is None:
        return "Int"
    name = t.render()
    if name in ("int", "nat"):
        return "Int"
    if name == "bool":
        return "Bool"
    return _sym(name)


_PLAIN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _sym(name: str) -> str:
    if _PLAIN.match(name):
        return name
    return "|" + name.replace("|", "_") + "|"


_OPS = {"&&": "and", "||": "or", "==>": "=>", "<==>": "=", "==": "=",
        "%": "mod", "+": "+", "-": "-", "*": "*",
        "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _sx(e: Expr, bound: dict[str, str], strategy: str) -> str:
    if isinstance(e, IntLit):
        return str(e.value) if e.value >= 0 else f"(- {-e.value})"
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Var):
        if e.name in bound:
            return bound[e.name]
        return _sym(e.resolved or f"%{e.name}")
    if isinstance(e, Call):
        args = " ".join(_sx(a, bound, strategy) for a in e.args)
        return f"({_sym(e.resolved or e.name)} {args})" if args else \
            _sym(e.resolved or e.name)
    if isinstance(e, Not):
        return f"(not {_sx(e.arg, bound, strategy)})"
    if isinstance(e, BinOp):
        lhs, rhs = _sx(e.lhs, bound, strategy), _sx(e.rhs, bound, strategy)
        if e.op == "!=":
            return f"(not (= {lhs} {rhs}))"
        return f"({_OPS[e.op]} {lhs} {rhs})"
    if isinstance(e, (Forall, Exists)):
        word = "forall" if isinstance(e, Forall) else "exists"
        inner, decls, guards = _bind([(b.name, b.ty) for b in e.binders], bound)
        body = _sx(e.body, inner, strategy)
        if guards:
            body = f"({'=>' if word == 'forall' else 'and'} {_conj(guards)} {body})"
        if word == "forall":
            try:
                groups = trig.infer_triggers(trig.Quantifier.of_forall(e),
                                             strategy).groups
            except TriggerError:
                groups = []  # no valid trigger: emitted without a pattern
            body = _with_patterns(body, groups, inner, strategy)
        return f"({word} ({' '.join(decls)}) {body})"
    raise ValueError(f"cannot emit {type(e).__name__}")


def _bind(binders: list[tuple[str, Type]], bound: dict[str, str]
          ) -> tuple[dict[str, str], list[str], list[str]]:
    """`bound` extended by `binders`, with their declarations and the bounds
    of those of sort nat."""
    inner = dict(bound)
    decls, guards = [], []
    for name, ty in binders:
        v = inner[name] = _sym(f"?{name}")
        decls.append(f"({v} {_smt_sort(ty)})")
        if ty.name == "nat":
            guards.append(f"(<= 0 {v})")
    return inner, decls, guards


def _conj(parts: list[str]) -> str:
    return parts[0] if len(parts) == 1 else f"(and {' '.join(parts)})"


def _with_patterns(body: str, groups: list[trig.TriggerGroup],
                   bound: dict[str, str], strategy: str) -> str:
    """`body` with one `:pattern` per trigger group, or as is if none."""
    if not groups:
        return body
    pats = " ".join(
        ":pattern (" + " ".join(_sx(t, bound, strategy) for t in g.exprs) + ")"
        for g in groups)
    return f"(! {body} {pats})"


def _fact_formula(qf: QuantifiedFact, strategy: str) -> str:
    bound, decls, hyp = _bind(qf.binders, {})
    if qf.hypothesis is not None:
        hyp.append(_sx(qf.hypothesis, bound, strategy))
    body = _sx(qf.conclusion, bound, strategy)
    if hyp:
        body = f"(=> {_conj(hyp)} {body})"
    body = _with_patterns(body, qf.triggers.groups, bound, strategy)
    return f"(forall ({' '.join(decls)}) {body})" if decls else body


def _collect_decls(exprs, binder_sorts, sorts: set, funcs: dict, consts: dict):
    def walk(e: Expr, bound: set[str]):
        if isinstance(e, Var):
            if e.name not in bound:
                sort = _smt_sort(e.ty)
                consts[_sym(e.resolved or f"%{e.name}")] = sort
                _note_sort(e.ty, sorts)
            return
        if isinstance(e, Call):
            arg_sorts = tuple(_smt_sort(a.ty) for a in e.args)
            funcs[_sym(e.resolved or e.name)] = (arg_sorts, _smt_sort(e.ty))
            _note_sort(e.ty, sorts)
            for a in e.args:
                _note_sort(a.ty, sorts)
                walk(a, bound)
            return
        if isinstance(e, BinOp):
            walk(e.lhs, bound)
            walk(e.rhs, bound)
            return
        if isinstance(e, Not):
            walk(e.arg, bound)
            return
        if isinstance(e, (Forall, Exists)):
            for b in e.binders:
                _note_sort(b.ty, sorts)
            walk(e.body, bound | {b.name for b in e.binders})
            return

    for e, bound in exprs:
        walk(e, bound)
    for t in binder_sorts:
        _note_sort(t, sorts)


def _note_sort(t: Type | None, sorts: set):
    if t is None:
        return
    name = _smt_sort(t)
    if name not in ("Int", "Bool"):
        sorts.add(name)


def emit_obligation(ob: Obligation, path: str):
    """Write `ob` as a script to `path`; a fact keeps its lowered triggers."""
    strategy = ob.strategy
    sorts: set = set()
    funcs: dict = {}
    consts: dict = {}
    exprs = [(e, set()) for e, _, _ in ob.context.ground]
    exprs.append((ob.goal, set()))
    binder_sorts = []
    for qf in ob.context.facts:
        names = {n for n, _ in qf.binders}
        exprs.append((qf.conclusion, names))
        if qf.hypothesis is not None:
            exprs.append((qf.hypothesis, names))
        binder_sorts.extend(t for _, t in qf.binders)
    for name, ty in ob.params.items():
        consts[_sym(f"%{name}")] = _smt_sort(ty)
        _note_sort(ty, sorts)
    _collect_decls(exprs, binder_sorts, sorts, funcs, consts)

    lines = ["(set-logic ALL)", "(set-option :produce-unsat-cores true)"]
    for s in sorted(sorts):
        lines.append(f"(declare-sort {s} 0)")
    for name, sort in sorted(consts.items()):
        lines.append(f"(declare-const {name} {sort})")
    for name, (args, ret) in sorted(funcs.items()):
        lines.append(f"(declare-fun {name} ({' '.join(args)}) {ret})")
    used_names: dict[str, int] = {}

    def fresh(base: str) -> str:
        n = used_names.get(base, 0)
        used_names[base] = n + 1
        return _sym(base if n == 0 else f"{base}#{n}")

    for e, origin, _ in ob.context.ground:
        label = fresh(f"hyp-{origin.path}")
        lines.append(f"(assert (! {_sx(e, {}, strategy)} :named {label}))")
    for qf in ob.context.facts:
        label = fresh(f"fact-{qf.origin.path}")
        lines.append(f"(assert (! {_fact_formula(qf, strategy)} :named {label}))")
    lines.append(f"(assert (! (not {_sx(ob.goal, {}, strategy)}) :named goal))")
    lines.append("(check-sat)")
    lines.append("(get-unsat-core)")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_all(obligations: list[Obligation], directory: str):
    os.makedirs(directory, exist_ok=True)
    by_fn: dict[str, int] = {}
    for ob in obligations:
        san = re.sub(r"[^A-Za-z0-9_]+", "_", ob.function)
        n = by_fn.get(san, 0)
        by_fn[san] = n + 1
        emit_obligation(ob, os.path.join(directory, f"{san}__{n}.smt2"))
