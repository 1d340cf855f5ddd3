"""SMT-LIB 2 emission: one standalone script per obligation, with quantified
facts carrying :pattern annotations and :named labels for core extraction by
an external solver. Nested `forall`s get the patterns that the strategy an
obligation was made under selects. One emitter per script writes its
assertions and records each sort, constant and function they mention; the
script declares exactly those, sorted, ahead of the assertions. Exists for
differential testing; not bit-exact."""

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

_PLAIN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _sym(name: str) -> str:
    if _PLAIN.match(name):
        return name
    return "|" + name.replace("|", "_") + "|"


_OPS = {"&&": "and", "||": "or", "==>": "=>", "<==>": "=", "==": "=",
        "%": "mod", "+": "+", "-": "-", "*": "*",
        "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _conj(parts: list[str]) -> str:
    return parts[0] if len(parts) == 1 else f"(and {' '.join(parts)})"


class _Script:
    """The emitter of one script, under the trigger strategy its obligation
    was made under: what it writes, it records for declaration."""

    def __init__(self, strategy: str):
        self.strategy = strategy
        self.sorts: set[str] = set()
        self.consts: dict[str, str] = {}
        self.funcs: dict[str, tuple[tuple[str, ...], str]] = {}
        self.labels: dict[str, int] = {}

    def sort(self, t: Type | None) -> str:
        name = "int" if t is None else t.render()
        if name in ("int", "nat"):
            return "Int"
        if name == "bool":
            return "Bool"
        name = _sym(name)
        self.sorts.add(name)
        return name

    def expr(self, e: Expr, bound: dict[str, str]) -> str:
        if isinstance(e, IntLit):
            return str(e.value) if e.value >= 0 else f"(- {-e.value})"
        if isinstance(e, BoolLit):
            return "true" if e.value else "false"
        if isinstance(e, Var):
            if e.name in bound:
                return bound[e.name]
            name = _sym(e.resolved or f"%{e.name}")
            self.consts[name] = self.sort(e.ty)
            return name
        if isinstance(e, Call):
            name = _sym(e.resolved or e.name)
            self.funcs[name] = (tuple(self.sort(a.ty) for a in e.args),
                                self.sort(e.ty))
            args = " ".join(self.expr(a, bound) for a in e.args)
            return f"({name} {args})" if args else name
        if isinstance(e, Not):
            return f"(not {self.expr(e.arg, bound)})"
        if isinstance(e, BinOp):
            lhs, rhs = self.expr(e.lhs, bound), self.expr(e.rhs, bound)
            if e.op == "!=":
                return f"(not (= {lhs} {rhs}))"
            return f"({_OPS[e.op]} {lhs} {rhs})"
        if isinstance(e, (Forall, Exists)):
            word = "forall" if isinstance(e, Forall) else "exists"
            inner, decls, guards = self.bind([(b.name, b.ty) for b in e.binders],
                                             bound)
            body = self.expr(e.body, inner)
            if guards:
                body = f"({'=>' if word == 'forall' else 'and'} {_conj(guards)} {body})"
            if word == "forall":
                try:
                    groups = trig.infer_triggers(trig.Quantifier.of_forall(e),
                                                 self.strategy).groups
                except TriggerError:
                    groups = []  # no valid trigger: emitted without a pattern
                body = self.with_patterns(body, groups, inner)
            return f"({word} ({' '.join(decls)}) {body})"
        raise ValueError(f"cannot emit {type(e).__name__}")

    def bind(self, binders: list[tuple[str, Type]], bound: dict[str, str]
             ) -> tuple[dict[str, str], list[str], list[str]]:
        """`bound` extended by `binders`, with their declarations and the
        bounds of those of sort nat."""
        inner = dict(bound)
        decls, guards = [], []
        for name, ty in binders:
            v = inner[name] = _sym(f"?{name}")
            decls.append(f"({v} {self.sort(ty)})")
            if ty.name == "nat":
                guards.append(f"(<= 0 {v})")
        return inner, decls, guards

    def with_patterns(self, body: str, groups: list[trig.TriggerGroup],
                      bound: dict[str, str]) -> str:
        """`body` with one `:pattern` per trigger group, or as is if none."""
        if not groups:
            return body
        pats = " ".join(
            ":pattern (" + " ".join(self.expr(t, bound) for t in g.exprs) + ")"
            for g in groups)
        return f"(! {body} {pats})"

    def fact_formula(self, qf: QuantifiedFact) -> str:
        bound, decls, hyp = self.bind(qf.binders, {})
        if qf.hypothesis is not None:
            hyp.append(self.expr(qf.hypothesis, bound))
        body = self.expr(qf.conclusion, bound)
        if hyp:
            body = f"(=> {_conj(hyp)} {body})"
        body = self.with_patterns(body, qf.triggers.groups, bound)
        return f"(forall ({' '.join(decls)}) {body})" if decls else body

    def assertion(self, formula: str, label: str) -> str:
        """`formula` asserted under `label`, or `label#n` if that is taken."""
        n = self.labels.get(label, 0)
        self.labels[label] = n + 1
        name = _sym(label if n == 0 else f"{label}#{n}")
        return f"(assert (! {formula} :named {name}))"


def emit_obligation(ob: Obligation, path: str):
    """Write `ob` as a script to `path`; a fact keeps its lowered triggers."""
    script = _Script(ob.strategy)
    for name, ty in ob.params.items():
        script.consts[_sym(f"%{name}")] = script.sort(ty)
    asserts = [script.assertion(script.expr(e, {}), f"hyp-{origin.path}")
               for e, origin, _ in ob.context.ground]
    asserts += [script.assertion(script.fact_formula(qf), f"fact-{qf.origin.path}")
                for qf in ob.context.facts]
    asserts.append(script.assertion(f"(not {script.expr(ob.goal, {})})", "goal"))
    lines = ["(set-logic ALL)", "(set-option :produce-unsat-cores true)"]
    lines += [f"(declare-sort {s} 0)" for s in sorted(script.sorts)]
    lines += [f"(declare-const {name} {sort})"
              for name, sort in sorted(script.consts.items())]
    lines += [f"(declare-fun {name} ({' '.join(args)}) {ret})"
              for name, (args, ret) in sorted(script.funcs.items())]
    lines += asserts + ["(check-sat)", "(get-unsat-core)"]
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
