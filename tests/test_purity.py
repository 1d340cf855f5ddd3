"""The pipeline is a function of the source text alone: it leaves the ASTs it
is given unmodified, its verdicts do not depend on declaration or file order,
and the prelude is parsed once per process."""

import glob
import os
import pickle

import pytest

import tunav.prelude
from tunav.driver import RunConfig, load_sources, resolve_with_prelude, verify_program
from tunav.minimize import minimize
from tunav.prelude import PRELUDE_FILES, load_prelude
from tunav.syntax import parse_module

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "corpus", "*.tv")))


@pytest.mark.parametrize("call", [
    lambda asts: verify_program(asts, RunConfig()),
    lambda asts: resolve_with_prelude(asts),
    lambda asts: minimize(asts, RunConfig()),
], ids=["verify_program", "resolve_with_prelude", "minimize"])
def test_inputs_unmodified(call):
    asts = load_sources(CORPUS)
    before = pickle.dumps(asts), pickle.dumps(load_prelude())
    call(asts)
    assert (pickle.dumps(asts), pickle.dumps(load_prelude())) == before


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
    tunav.prelude._parsed_prelude.cache_clear()
    try:
        verify_program([], RunConfig(), tasks=[])
        verify_program([], RunConfig(), tasks=[])
    finally:
        tunav.prelude._parsed_prelude.cache_clear()
    assert sorted(parsed) == sorted(f"<prelude>/{f}" for f, _ in PRELUDE_FILES)
