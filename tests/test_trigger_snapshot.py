"""What trigger selection picks, pinned quantifier by quantifier.

For the corpus resolved with the prelude, and for the prelude alone, the
snapshot lists every broadcast fact as `vcgen.lower_quantified_fact` builds
it (conclusion as the primary pool, hypothesis as the secondary) and every
`forall`/`exists` nested in a requires, an ensures, a proof body or a spec
body. It ends with random quantifier bodies, unmarked and with random
subterms marked. Each quantifier is selected with and without its
`#[trigger]` marks, under both strategies, and gives either its groups (each
expression rendered with its source offsets), `strategy_used` and warnings,
or the `TriggerError` message. A change to trigger selection that is meant
to be exact must leave it byte for byte. Regenerate it only for an intended
change of what selection picks:

    PYTHONPATH=src python tests/test_trigger_snapshot.py > tests/snapshots/trigger_selections.txt
"""

from __future__ import annotations

import dataclasses
import os
import random

from test_resolve_snapshot import corpus_texts
from test_triggers import random_body

from tunav import triggers as trig
from tunav.driver import resolve_with_prelude
from tunav.errors import TriggerError
from tunav.syntax import parse_module
from tunav.syntax.ast import (
    Call,
    Exists,
    Expr,
    Forall,
    ProofFn,
    SpecFn,
    Var,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)
from tunav.syntax.render import render_expr
from tunav.vcgen import lower_quantified_fact

HERE = os.path.dirname(os.path.abspath(__file__))
SNAPSHOT = os.path.join(HERE, "snapshots", "trigger_selections.txt")
STRATEGIES = (trig.CONSERVATIVE, trig.ALL_TRIGGERS)
RANDOM_BODIES = 400


def unmarked(node):
    """A copy of `node` (an expression or a list) without `#[trigger]` marks."""
    if isinstance(node, list):
        return [unmarked(n) for n in node]
    if not isinstance(node, Expr):
        return node
    kids = {f.name: unmarked(getattr(node, f.name)) for f in dataclasses.fields(node)
            if isinstance(getattr(node, f.name), (Expr, list))}
    return dataclasses.replace(node, trigger_mark=False, **kids)


def selection_lines(select) -> list[str]:
    """`select(strategy)` under each strategy, one line per result and one per
    warning."""
    out = []
    for strategy in STRATEGIES:
        try:
            sel = select(strategy)
        except TriggerError as exc:
            out.append(f"   {strategy}: error {exc}")
            continue
        groups = " | ".join(
            ", ".join(f"{render_expr(e)}@{e.span.start}-{e.span.end}" for e in g.exprs)
            for g in sel.groups)
        out.append(f"   {strategy}: {sel.strategy_used} [{groups}]")
        out.extend(f"    warning {w}" for w in sel.warnings)
    return out


def quantifier_lines(q: trig.Quantifier) -> list[str]:
    bare = dataclasses.replace(q, primary=unmarked(q.primary),
                               secondary=unmarked(q.secondary))
    return (["  marked"] + selection_lines(lambda s: trig.infer_triggers(q, s))
            + ["  unmarked"] + selection_lines(lambda s: trig.infer_triggers(bare, s)))


def nested_quantifiers(decl) -> list[tuple[str, Expr]]:
    """(role, quantifier) for every quantifier in `decl`'s clauses and body,
    in source order."""
    roots = [(f"requires#{i}", e) for i, e in enumerate(getattr(decl, "requires", []))]
    roots += [(f"ensures#{i}", e) for i, e in enumerate(getattr(decl, "ensures", []))]
    if isinstance(decl, ProofFn):
        roots += [("body", e) for s in walk_stmts(decl.body) for e in stmt_exprs(s)]
    if isinstance(decl, SpecFn) and decl.body is not None:
        roots.append(("spec-body", decl.body))
    return [(role, sub) for role, e in roots for sub in walk_exprs(e)
            if isinstance(sub, (Forall, Exists))]


def dump_program(label: str, program, done: set[str]) -> list[str]:
    out = []
    for sym, inst in program.instances.items():
        if sym in done:
            continue
        done.add(sym)
        decl = inst.decl
        if getattr(decl, "broadcast", False):
            bare = dataclasses.replace(inst, decl=dataclasses.replace(
                decl, requires=unmarked(decl.requires), ensures=unmarked(decl.ensures)))
            out.append(f"{label} {sym} fact")
            out.append("  marked")
            out += selection_lines(lambda s: lower_quantified_fact(inst, s).triggers)
            out.append("  unmarked")
            out += selection_lines(lambda s: lower_quantified_fact(bare, s).triggers)
        for role, q in nested_quantifiers(decl):
            kind = "forall" if isinstance(q, Forall) else "exists"
            out.append(f"{label} {sym} {role} {kind}@{q.span.start}-{q.span.end}")
            out += quantifier_lines(trig.Quantifier.of_forall(q) if isinstance(q, Forall)
                                    else trig.Quantifier.of_exists(q))
    return out


def random_quantifier(seed: int) -> tuple[str, trig.Quantifier]:
    """The quantifier `test_triggers.random_body` makes from `seed`; on odd
    seeds about a quarter of its calls, variables and sums are marked."""
    rng = random.Random(seed)
    binders = ["i"] if rng.random() < 0.6 else ["i", "j"]
    btext = ", ".join(f"{b}: int" for b in binders)
    body = random_body(rng, binders)
    src = f"spec fn t(s: Seq<int>) -> bool {{ forall|{btext}| {body} }}"
    q = parse_module(src, "t.tv").declarations[0].body
    if seed % 2:
        for sub in walk_exprs(q.body):
            if isinstance(sub, (Call, Var)) or getattr(sub, "op", None) in trig.ARITH_TRIGGER_OPS:
                sub.trigger_mark = rng.random() < 0.25
    return render_expr(q), trig.Quantifier.of_forall(q)


def dump_all() -> str:
    asts = [parse_module(text, f"corpus/{m}.tv", module=m)
            for m, text in corpus_texts().items()]
    done: set[str] = set()
    out = dump_program("corpus", resolve_with_prelude(asts)[0], done)
    out += dump_program("prelude", resolve_with_prelude([])[0], done)
    for seed in range(RANDOM_BODIES):
        text, q = random_quantifier(seed)
        out.append(f"random {seed} {text}")
        out += quantifier_lines(q)
    return "\n".join(out) + "\n"


def test_trigger_selections_match_snapshot():
    with open(SNAPSHOT, encoding="utf-8") as fh:
        want = fh.read()
    got = dump_all()
    if got != want:
        for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
            assert a == b, f"first difference at snapshot line {i + 1}"
    assert got == want


if __name__ == "__main__":
    print(dump_all(), end="")
