import glob
import os
from pathlib import Path

import pytest

from tunav.driver import RunConfig, resolve_with_prelude
from tunav.smtlib import emit_all
from tunav.syntax import parse_module
from tunav.triggers import ALL_TRIGGERS, CONSERVATIVE
from tunav.vcgen import VcgenRun, generate_obligations

SRC = """
proof fn push_contains(a: Seq<int>) {
    broadcast use {lemma_seq_contains_after_push};
    let b = a.push(3);
    assert(b.contains(3));
}

proof fn quantified(s: Seq<int>)
    requires forall|i: int| 0 <= i < s.len() ==> #[trigger] s.index(i) >= 0
    ensures s.len() >= 0
{ }
"""


def test_emit_obligations(tmp_path):
    program, registry = resolve_with_prelude(
        [parse_module(SRC, "user.tv", module="user")])
    obs = []
    for task in ("user::push_contains", "user::quantified"):
        obs.extend(generate_obligations(task, VcgenRun(program, registry)))
    emit_all(obs, str(tmp_path))
    files = sorted(glob.glob(os.path.join(str(tmp_path), "*.smt2")))
    assert len(files) == len(obs)
    text = Path(files[0]).read_text()
    assert text.startswith("(set-logic ALL)")
    assert "(check-sat)" in text and "(get-unsat-core)" in text
    assert ":named" in text
    combined = "".join(Path(f).read_text() for f in files)
    assert ":pattern" in combined
    assert "(forall" in combined
    assert "declare-fun" in combined
    assert "(assert (! (not" in combined  # negated goal
    # balanced parentheses in every emitted script
    for f in files:
        body = Path(f).read_text()
        assert body.count("(") == body.count(")"), f


def test_quantifier_binder_sort_is_qualified(tmp_path):
    """A binder written `Seq<int>` gets the same sort as a parameter of that
    type, so the script declares the sequence sort once."""
    src = """
proof fn q(t: Seq<int>)
    requires forall|s: Seq<int>| #[trigger] s.len() >= 0
    ensures t.len() >= 0
{ }
"""
    program, registry = resolve_with_prelude([parse_module(src, "q.tv", module="q")])
    obs = generate_obligations("q::q", VcgenRun(program, registry))
    emit_all(obs, str(tmp_path))
    [path] = glob.glob(os.path.join(str(tmp_path), "*.smt2"))
    with open(path) as fh:
        text = fh.read()
    sorts = [line for line in text.splitlines() if line.startswith("(declare-sort")]
    assert sorts == ["(declare-sort |prelude::seq::Seq<int>| 0)"]
    assert "((|?s| |prelude::seq::Seq<int>|))" in text


@pytest.mark.parametrize("strategy,patterns", [(CONSERVATIVE, 1), (ALL_TRIGGERS, 2)])
def test_nested_forall_patterns_follow_strategy(tmp_path, strategy, patterns):
    """A quantifier inside a hypothesis gets the triggers the run's strategy
    selects: the most specific one, or every candidate."""
    src = """
spec fn f(i: int) -> int;
spec fn g(i: int) -> int;
proof fn q(x: int)
    requires forall|i: int| f(i) == g(i)
    ensures f(x) == g(x)
{ }
"""
    program, registry = resolve_with_prelude([parse_module(src, "q.tv", module="q")])
    obs = generate_obligations(
        "q::q", VcgenRun(program, registry, RunConfig(strategy=strategy)))
    emit_all(obs, str(tmp_path))
    [path] = glob.glob(os.path.join(str(tmp_path), "*.smt2"))
    with open(path) as fh:
        [hyp] = [line for line in fh if ":named |hyp-requires#0|" in line]
    assert hyp.startswith("(assert (! (forall ((|?i| Int))")
    assert hyp.count(":pattern") == patterns


def test_nat_parameter_bound_is_asserted_once(tmp_path):
    """A `nat` parameter's bound is vcgen's named hypothesis; the script
    asserts it once, under that name."""
    src = "proof fn p(n: nat) ensures n + 1 > 0 {}\n"
    program, registry = resolve_with_prelude([parse_module(src, "p.tv", module="p")])
    emit_all(generate_obligations("p::p", VcgenRun(program, registry)), str(tmp_path))
    [path] = glob.glob(os.path.join(str(tmp_path), "*.smt2"))
    with open(path) as fh:
        text = fh.read()
    assert text.count("(<= 0 |%n|)") == 1
    [line] = [line for line in text.splitlines() if "(<= 0 |%n|)" in line]
    assert line == "(assert (! (<= 0 |%n|) :named |hyp-param n|))"


def test_quantifier_without_a_valid_trigger_is_emitted_without_a_pattern(tmp_path):
    """A goal's `forall` is skolemized by the engine, never instantiated, so
    it needs no trigger; `i >= 0` has none, and the script states it without
    `:pattern`."""
    src = "proof fn p(x: int) ensures forall|i: int| i >= 0 ==> i >= 0 { }"
    program, registry = resolve_with_prelude(
        [parse_module(src, "user.tv", module="user")])
    obs = generate_obligations("user::p", VcgenRun(program, registry))
    emit_all(obs, str(tmp_path))
    [script] = [Path(f).read_text()
                for f in glob.glob(os.path.join(str(tmp_path), "*.smt2"))]
    goal = [line for line in script.splitlines() if line.startswith("(assert (! (not")]
    assert goal == ["(assert (! (not (forall ((|?i| Int)) (=> (>= |?i| 0) (>= |?i| 0)))) "
                    ":named goal))"]
