import random

import pytest

from tunav.errors import TriggerError
from tunav.syntax import parse_module
from tunav.triggers import (
    ALL_TRIGGERS,
    CONSERVATIVE,
    MANUAL,
    Quantifier,
    expr_key,
    _enumerate,
    infer_triggers,
)
from tunav.syntax.ast import Forall


def quantifier_of(body_src: str, binders: str = "i: int") -> Quantifier:
    src = f"spec fn t(s: Seq<int>) -> bool {{ forall|{binders}| {body_src} }}"
    q = parse_module(src, "t.tv").declarations[0].body
    assert isinstance(q, Forall)
    return Quantifier.of_forall(q)


def keys(exprs):
    return {expr_key(e) for e in exprs}


def candidates(q: Quantifier):
    """Every valid trigger subexpression of `q`, in source order; candidates
    that are subterms of other candidates are both listed."""
    binders = {b.name for b in q.binders}
    return [c.expr for c in _enumerate(binders, q.primary + q.secondary)]


def test_candidates_section_2_2_example():
    q = quantifier_of("0 <= i < s.len() ==> is_even(s.index(i))")
    cands = candidates(q)
    expect = quantifier_of("is_even(s.index(i)) && s.index(i) == 0")
    want = keys([expect.primary[0].lhs, expect.primary[0].rhs.lhs])
    assert keys(cands) == want  # s.len() excluded: mentions no quantified variable


def test_candidates_no_function_application():
    q = quantifier_of("i == i")
    assert candidates(q) == []


def test_candidates_arithmetic_subterm():
    q = quantifier_of("f(i + 1) == 0")
    cands = candidates(q)
    assert len(cands) == 2  # f(i+1) and i+1, both listed


def test_manual_mark_selected():
    q = quantifier_of("0 <= i < s.len() ==> #[trigger] is_even(s.index(i))")
    sel = infer_triggers(q, CONSERVATIVE)
    assert sel.strategy_used == MANUAL
    assert len(sel.groups) == 1 and len(sel.groups[0].exprs) == 1
    marked = sel.groups[0].exprs[0]
    assert marked.name == "is_even"


def test_manual_marks_are_checked_by_the_candidate_rule(monkeypatch):
    """Each mark is checked as a candidate itself: selecting from marks never
    enumerates the other candidates of the pools."""
    import tunav.triggers as triggers

    def no_enumeration(*_args):
        raise AssertionError("marks were checked by enumerating candidates")

    monkeypatch.setattr(triggers, "_enumerate", no_enumeration)
    q = quantifier_of("#[trigger] f(i) == g(i + 1)")
    assert infer_triggers(q, ALL_TRIGGERS).strategy_used == MANUAL
    for body in ("#[trigger] (i == 0)", "#[trigger] f(0) == f(i)", "f(#[trigger] i) == 0"):
        with pytest.raises(TriggerError, match="invalid #\\[trigger\\] annotation"):
            infer_triggers(quantifier_of(body), CONSERVATIVE)


def test_all_triggers_prunes_redundant_superterm():
    q = quantifier_of("0 <= i < s.len() ==> is_even(s.index(i))")
    sel = infer_triggers(q, ALL_TRIGGERS)
    assert sel.strategy_used == ALL_TRIGGERS
    assert len(sel.groups) == 1
    (only,) = sel.groups[0].exprs
    assert only.name == "index"  # is_even(s.index(i)) pruned: s.index(i) is inside it


def test_conservative_prefers_larger_then_source_order():
    q = quantifier_of("f(i) == g(i)")
    sel = infer_triggers(q, CONSERVATIVE)
    assert len(sel.groups) == 1
    (pick,) = sel.groups[0].exprs
    assert pick.name == "f"  # equal size: earliest wins


def test_conservative_prefers_most_specific():
    q = quantifier_of("0 <= i < s.len() ==> is_even(s.index(i))")
    sel = infer_triggers(q, CONSERVATIVE)
    (pick,) = sel.groups[0].exprs
    assert pick.name == "is_even"  # larger term fires less


def test_no_candidates_is_error():
    q = quantifier_of("i == i + 0 - 0 == i")
    # i + 0: arithmetic with direct quantified variable IS a candidate, so tweak:
    q = quantifier_of("i == i")
    with pytest.raises(TriggerError):
        infer_triggers(q, CONSERVATIVE)


def test_manual_marks_must_cover_all_binders():
    q = quantifier_of("#[trigger] f(i) == g(j)", binders="i: int, j: int")
    with pytest.raises(TriggerError):
        infer_triggers(q, CONSERVATIVE)


def test_multi_expression_group_when_no_single_covers():
    q = quantifier_of("f(i) == g(j)", binders="i: int, j: int")
    sel = infer_triggers(q, CONSERVATIVE)
    assert len(sel.groups) == 1
    assert len(sel.groups[0].exprs) == 2


def test_all_triggers_attr_on_quantifier_overrides_conservative():
    q = quantifier_of("0 <= i < s.len() ==> is_even(s.index(i))")
    q.all_triggers_attr = True
    sel = infer_triggers(q, CONSERVATIVE)
    assert sel.strategy_used == ALL_TRIGGERS


def test_all_triggers_mixed_arith_call_falls_back():
    q = quantifier_of("f(i) == i + 1")
    sel = infer_triggers(q, ALL_TRIGGERS)
    assert sel.strategy_used == CONSERVATIVE
    assert any("conservative" in w for w in sel.warnings)


def test_matching_loop_warning():
    # all_triggers keeps the inner f(i), which occurs inside f(f(i)): loop risk.
    q = quantifier_of("f(f(i)) == f(i)")
    sel = infer_triggers(q, ALL_TRIGGERS)
    assert any("matching loop" in w for w in sel.warnings)
    # conservative picks the outermost f(f(i)), which does not self-feed.
    cons = infer_triggers(quantifier_of("f(f(i)) == f(i)"), CONSERVATIVE)
    assert not any("matching loop" in w for w in cons.warnings)


def test_hypothesis_pool_used_only_when_needed():
    # conclusion covers i; hypothesis mentions j only -- j forces the fallback pool
    src = ("spec fn t(s: Seq<int>) -> bool { true }")
    q = quantifier_of("f(i) == 0", binders="i: int")
    sel = infer_triggers(q, CONSERVATIVE)
    assert len(sel.groups[0].exprs) == 1


# -- randomized properties ----------------------------------------------------

FN_POOL = [("f", 1), ("g", 1), ("h", 2)]


def random_body(rng: random.Random, binders: list[str]) -> str:
    def atom(depth):
        r = rng.random()
        if r < 0.45:
            name, arity = rng.choice(FN_POOL)
            args = ", ".join(arg(depth + 1) for _ in range(arity))
            return f"{name}({args})"
        if r < 0.7:
            return rng.choice(binders)
        return str(rng.randint(0, 3))

    def arg(depth):
        if depth < 2 and rng.random() < 0.3:
            return f"{atom(depth)} + {atom(depth)}"
        return atom(depth)

    def cmp(depth):
        return f"{atom(depth)} {rng.choice(['==', '<=', '<'])} {atom(depth)}"

    parts = [cmp(0) for _ in range(rng.randint(1, 3))]
    return (" " + rng.choice(["&&", "||", "==>"]) + " ").join(parts)


def covered(group, binders):
    from tunav.triggers import free_vars
    got = set()
    for e in group.exprs:
        got |= free_vars(e) & set(binders)
    return got == set(binders)


@pytest.mark.parametrize("seed", range(60))
def test_selection_properties_random(seed):
    rng = random.Random(seed)
    binders = ["i"] if rng.random() < 0.6 else ["i", "j"]
    btext = ", ".join(f"{b}: int" for b in binders)
    body = random_body(rng, binders)
    try:
        q = quantifier_of(body, binders=btext)
    except Exception:
        pytest.skip("unparseable random body")
    for strategy in (CONSERVATIVE, ALL_TRIGGERS):
        try:
            sel = infer_triggers(q, strategy)
        except TriggerError:
            continue
        # coverage: every emitted group mentions every binder
        for g in sel.groups:
            assert covered(g, binders)
        # determinism: repeated runs agree
        again = infer_triggers(q, strategy)
        assert [[expr_key(e) for e in g.exprs] for g in sel.groups] == \
               [[expr_key(e) for e in g.exprs] for g in again.groups]
    # redundancy: no two retained all_triggers groups subsume each other
    try:
        sel = infer_triggers(q, ALL_TRIGGERS)
    except TriggerError:
        return
    from tunav.triggers import _group_subsumes
    for a in sel.groups:
        for b in sel.groups:
            if a is not b:
                assert not _group_subsumes(a.exprs, b.exprs)
    # superset property proxy: some all_triggers group matches whenever the
    # conservative one does (its exprs are subterms of the conservative pick)
    try:
        cons = infer_triggers(q, CONSERVATIVE)
    except TriggerError:
        return
    if sel.strategy_used == ALL_TRIGGERS:
        from tunav.triggers import _group_subsumes
        assert any(_group_subsumes(g.exprs, cons.groups[0].exprs) for g in sel.groups)


def test_expr_key_keys_a_nested_quantifier_by_its_node():
    """A nested quantifier is keyed by its node, not by its structure: two
    equal-looking quantifiers are different terms, while a term that holds
    the same quantifier node keys equal wherever it is met."""
    body = "s.index(i) > 0 && (forall|j: int| #[trigger] s.index(j) > i)"
    outer, twin = quantifier_of(body), quantifier_of(body)
    nested = outer.primary[0].rhs
    assert isinstance(nested, Forall)
    assert expr_key(nested) == expr_key(nested) == ("q", id(nested))
    assert expr_key(nested) != expr_key(twin.primary[0].rhs)
    assert expr_key(outer.primary[0]) == expr_key(outer.primary[0])
    assert expr_key(outer.primary[0]) != expr_key(twin.primary[0])
