"""The pipeline is a function of the source text alone: it leaves the ASTs it
is given unmodified, no phase after resolve writes into resolve's trees, its
verdicts do not depend on declaration or file order, and the prelude is
parsed once per process."""

import dataclasses
import glob
import os
import pickle

import pytest

import tunav.prelude
from tunav.driver import RunConfig, load_sources, resolve_with_prelude, verify_program
from tunav.minimize import minimize
from tunav.prelude import PRELUDE_FILES, load_prelude
from tunav.resolve import ResolveMemo
from tunav.smtlib import emit_all
from tunav.syntax import parse_module
from tunav.syntax.render import render_expr
from tunav.vcgen import (
    VcgenRun,
    generate_obligations,
    prove_obligation,
)

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "corpus", "*.tv")))


# a generic declaration, whose instances are copies of its checked tree, and
# a non-generic one, whose checked tree is its instance
GENERIC_AND_NOT = """
spec fn twice<A>(s: Seq<A>) -> int { s.len() + s.len() }
proof fn ground(s: Seq<int>) ensures twice(s) == 2 * s.len() { }
"""


def resolve_twice(asts):
    """Two resolves under one memo: both give the non-generic declaration the
    same instance tree."""
    memo = ResolveMemo()
    first, second = (resolve_with_prelude(asts, memo)[0] for _ in range(2))
    assert "purity::twice<int>" in first.instances
    ground = [program.instances["purity::ground"].decl for program in (first, second)]
    assert ground[0] is ground[1]


@pytest.mark.parametrize("call", [
    lambda asts: verify_program(asts, RunConfig()),
    lambda asts: resolve_with_prelude(asts),
    lambda asts: minimize(asts, RunConfig()),
    resolve_twice,
], ids=["verify_program", "resolve_with_prelude", "minimize", "resolve_twice"])
def test_inputs_unmodified(call):
    asts = load_sources(CORPUS) + [parse_module(GENERIC_AND_NOT, "purity.tv",
                                                module="purity")]
    before = pickle.dumps(asts), pickle.dumps(load_prelude())
    call(asts)
    assert (pickle.dumps(asts), pickle.dumps(load_prelude())) == before


def records(program) -> bytes:
    """The program's instance records but for their lowered facts, the one
    slot vcgen fills (`MonoFn.lowered`)."""
    return pickle.dumps({sym: dataclasses.replace(fn, lowered={})
                         for sym, fn in program.instances.items()})


def test_resolved_program_unmodified(tmp_path):
    """vcgen, the engine, SMT-LIB emission and rendering only read resolve's
    monomorphized trees: they cache nothing on them and flip no flag."""
    program, registry = resolve_with_prelude(load_sources(CORPUS))
    before = records(program)
    obligations = []
    run = VcgenRun(program, registry, RunConfig())
    for task in program.proof_fns():
        for ob in generate_obligations(task, run):
            prove_obligation(ob)
            obligations.append(ob)
    emit_all(obligations, str(tmp_path))
    for inst in program.instances.values():
        for e in getattr(inst.decl, "requires", []) + getattr(inst.decl, "ensures", []):
            render_expr(e)
    assert records(program) == before


def statuses(asts):
    run = verify_program(asts, RunConfig())
    return {t: r.status for t, r in run.results.items()}


CALLER = "spec fn f(a: Seq<int>) -> int { g(a) + 1 }\n"
CALLEE = "spec fn g(a: Seq<int>) -> int { a.len() }\n"
USER = "proof fn p(a: Seq<int>) ensures f(a) == a.len() + 1 { }\n"


def test_call_to_later_declaration():
    forward = [parse_module(CALLER + CALLEE + USER, "m.tv", module="m")]
    backward = [parse_module(CALLEE + CALLER + USER, "m.tv", module="m")]
    assert statuses(forward) == statuses(backward)
    assert statuses(forward)["m::p"] == "verified"


FILE_A = """
proof fn use_it(s: Seq<int>) ensures s.push(1).len() > 0 {
    lemma_b(s);
}
"""
FILE_B = """
proof fn lemma_b(s: Seq<int>) ensures s.push(1).len() == s.len() + 1 { }
"""


def test_lemma_call_into_later_file():
    a = parse_module(FILE_A, "a.tv", module="a")
    b = parse_module(FILE_B, "b.tv", module="b")
    assert statuses([a, b]) == statuses([b, a])
    assert statuses([a, b])["a::use_it"] == "verified"


def test_prelude_parsed_once(monkeypatch):
    parsed = []

    def counting_parse(text, path, module=None):
        parsed.append(path)
        return parse_module(text, path, module=module)

    monkeypatch.setattr(tunav.prelude, "parse_module", counting_parse)
    tunav.prelude.prelude_store.cache_clear()
    try:
        verify_program([], RunConfig(), tasks=[])
        verify_program([], RunConfig(), tasks=[])
    finally:
        tunav.prelude.prelude_store.cache_clear()
    assert sorted(parsed) == sorted(f"<prelude>/{f}" for f, _ in PRELUDE_FILES)
