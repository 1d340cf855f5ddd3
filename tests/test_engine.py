import gc
import glob
import random
import time

import pytest

from tunav import vcgen
from tunav.cli import main as cli_main
from tunav.driver import RunConfig, load_sources, verify_program
from tunav.engine import (
    Limits,
    Origin,
    Outcome,
    ProverState,
    eval_finite,
    make_fact,
    prove,
)
from tunav.engine import prover
from tunav.engine.prover import compile_formula
from tunav.engine.arith import (
    CONSISTENT,
    INCONSISTENT,
    Constraint,
    check_constraints,
)
from tunav.syntax.ast import BinOp, BoolLit, Call, IntLit, Not, SourceSpan, Type, Var
from tunav.triggers import CONSERVATIVE
from test_resolve_snapshot import synth_like_asts

CORPUS = sorted(glob.glob("tests/corpus/*.tv"))
SPAN = SourceSpan("t.tv", 0, 1, 1, 1)
INT = Type("int")
BOOL = Type("bool")
SEQ = Type("Seq", (INT,))

H = frozenset([Origin("local", "hyp")])
G = frozenset([Origin("goal", "goal")])


def iv(name):
    return Var(SPAN, name=name, ty=INT)


def sv(name):
    return Var(SPAN, name=name, ty=SEQ)


def il(v):
    return IntLit(SPAN, value=v, ty=INT)


def call(name, *args, ty=INT):
    c = Call(SPAN, name=name, args=list(args), ty=ty)
    c.resolved = name
    return c


def b(op, lhs, rhs, ty=BOOL):
    return BinOp(SPAN, op=op, lhs=lhs, rhs=rhs, ty=ty)


def fact(name, binders, hyp, concl, trigger_exprs):
    return make_fact(name, name, binders, hyp, concl, [tuple(trigger_exprs)],
                     frozenset([Origin("lemma", name)]), CONSERVATIVE)


def compiled(e):
    return compile_formula(e, CONSERVATIVE)


def prove_exprs(hyps, facts, goal, goal_origins, **kwargs):
    """`prove` on expressions, compiled as vcgen compiles them."""
    return prove([(compiled(h), o) for h, o in hyps], facts, compiled(goal),
                 goal_origins, **kwargs)


# -- arithmetic ----------------------------------------------------------------


def C(coeffs, const, src=0):
    return Constraint(dict(coeffs), const, frozenset([src]))


def test_arith_spec_example_inconsistent():
    # x > 10, y > 20, z == x + y, z <= 30
    x, y, z = 1, 2, 3
    cs = [
        C({x: -1}, 11, 0),                 # x >= 11
        C({y: -1}, 21, 1),                 # y >= 21
        C({z: 1, x: -1, y: -1}, 0, 2),     # z - x - y <= 0
        C({z: -1, x: 1, y: 1}, 0, 2),      # z - x - y >= 0
        C({z: 1}, -30, 3),                 # z <= 30
    ]
    res = check_constraints(cs)
    assert res.status == INCONSISTENT
    assert res.conflict_sources  # points back at source atoms


def test_arith_empty_consistent():
    assert check_constraints([]).status == CONSISTENT


def test_arith_integer_tightening():
    # 2x == 1 is inconsistent over the integers
    cs = [C({1: 2}, -1, 0), C({1: -2}, 1, 0)]
    assert check_constraints(cs).status == INCONSISTENT


def test_arith_brute_force_agreement():
    rng = random.Random(7)
    for _ in range(150):
        nvars = rng.randint(1, 3)
        cs = []
        for i in range(rng.randint(1, 5)):
            coeffs = {v: rng.randint(-3, 3) for v in range(nvars)
                      if rng.random() < 0.8}
            coeffs = {v: c for v, c in coeffs.items() if c}
            cs.append(C(coeffs, rng.randint(-6, 6), i))
        res = check_constraints(cs)
        # brute force over a finite box; a found solution refutes "inconsistent"
        solution_found = False
        box = range(-8, 9)
        import itertools
        for vals in itertools.product(box, repeat=nvars):
            ok = all(sum(c * vals[v] for v, c in cons.coeffs.items())
                     + cons.const <= 0 for cons in cs)
            if ok:
                solution_found = True
                break
        if res.status == INCONSISTENT:
            assert not solution_found
        if res.status == CONSISTENT and solution_found:
            pass  # agreement (rational consistency can exceed the box; fine)


# -- e-matching -----------------------------------------------------------------


def index_fact_state():
    """Graph holding s.index(3) (s a parameter), per the trigger-sensitivity
    walkthrough."""
    st = ProverState()
    s = st.graph.new_term("%s", ())
    three = st.graph.int_term(3)
    st.graph.new_term("index", (s, three))
    return st


def test_ematch_no_match_without_application():
    st = index_fact_state()
    f = fact("f", [("i", INT)], None,
             call("is_even", call("index", sv("s"), iv("i")), ty=BOOL),
             [call("is_even", call("index", sv("s"), iv("i")), ty=BOOL)])
    assert st.ematch(f.triggers[0], f) == []


def test_ematch_matches_inner_application():
    st = index_fact_state()
    f = fact("f", [("i", INT)], None,
             call("is_even", call("index", sv("s"), iv("i")), ty=BOOL),
             [call("index", sv("s"), iv("i"))])
    matches = st.ematch(f.triggers[0], f)
    assert len(matches) == 1
    sigma, _ = matches[0]
    assert st.graph.value_of(sigma["i"]) == 3


def test_ematch_empty_graph_no_matches():
    st = ProverState()
    f = fact("f", [("i", INT)], None, call("p", iv("i"), ty=BOOL),
             [call("p", iv("i"), ty=BOOL)])
    assert st.ematch(f.triggers[0], f) == []


def test_ematch_modulo_congruence():
    # b == push(a, 3); trigger contains(push(s, v), x) must match contains(b, 3)
    st = ProverState()
    a = st.graph.new_term("%a", ())
    three = st.graph.int_term(3)
    push = st.graph.new_term("push", (a, three))
    bterm = st.graph.new_term("%b", ())
    st.graph.merge(bterm, push, H)
    st.graph.new_term("contains", (bterm, three))
    st.graph.process()
    pat = call("contains", call("push", sv("s"), iv("v")), iv("x"), ty=BOOL)
    f = fact("f", [("s", SEQ), ("v", INT), ("x", INT)], None, pat, [pat])
    matches = st.ematch(f.triggers[0], f)
    assert len(matches) == 1
    sigma, just = matches[0]
    assert st.graph.find(sigma["s"]) == st.graph.find(a)
    # the match crossed the b == push(a,3) merge: its origin must be justified
    assert Origin("local", "hyp") in just


def test_one_round_instantiates_a_repeated_substitution_once():
    # f(a) and f(b) with a == b: the trigger f(x) matches both terms at the
    # same class, and the round makes one instance of it
    st = ProverState()
    a = st.graph.new_term("%a", ())
    bterm = st.graph.new_term("%b", ())
    st.graph.new_term("f", (a,))
    st.graph.new_term("f", (bterm,))
    st.graph.merge(a, bterm, H)
    st.graph.process()
    f = fact("f", [("x", INT)], None, b(">=", call("f", iv("x")), il(0)),
             [call("f", iv("x"))])
    st.add_fact(f)
    sigmas = [sigma for sigma, _ in st.ematch(f.triggers[0], f)]
    assert sigmas and all(sigma == {"x": st.graph.find(a)} for sigma in sigmas)
    assert st.instantiate_round() == 1
    assert st.shared.inst_total == 1
    assert st.instantiate_round() == 0


# -- prove ------------------------------------------------------------------------


def test_prove_unsatisfiable_goal_fails():
    out = prove_exprs([], [], b("==", il(1), il(2)), G)
    assert out.status == "failed"


def test_prove_ground_tautology():
    out = prove_exprs([(b("<", il(0), iv("x")), H)], [], b("<=", il(0), iv("x")), G,
                      params={"x": INT})
    assert out.status == "verified"


def test_prove_uses_fact_and_reports_core():
    # fact: forall i. trigger p(i): p(i) ==> q(i);  hyp: p(c);  goal: q(c)
    f = fact("imp", [("i", INT)], call("p", iv("i"), ty=BOOL),
             call("q", iv("i"), ty=BOOL), [call("p", iv("i"), ty=BOOL)])
    hyp = (call("p", iv("c"), ty=BOOL), H)
    out = prove_exprs([hyp], [f], call("q", iv("c"), ty=BOOL), G, params={"c": INT})
    assert out.status == "verified"
    assert Origin("lemma", "imp") in out.used_core
    assert out.instantiations.get("imp") == 1


def test_prove_failed_without_needed_fact():
    hyp = (call("p", iv("c"), ty=BOOL), H)
    out = prove_exprs([hyp], [], call("q", iv("c"), ty=BOOL), G, params={"c": INT})
    assert out.status == "failed"


def test_matching_loop_self_feeding_unknown_rounds():
    # forall x. trigger f(x): f(f(x)) == f(x) + 1 keeps minting fresh classes
    body = b("==", call("f", call("f", iv("x"))), b("+", call("f", iv("x")), il(1), INT))
    f = fact("loop", [("x", INT)], None, body, [call("f", iv("x"))])
    hyp = (b("==", call("f", il(0)), call("f", il(0))), H)
    goal = call("p", il(0), ty=BOOL)
    out = prove_exprs([hyp], [f], goal, G, limits=Limits(max_rounds=5))
    assert out.status == "unknown" and out.reason == "rounds"
    assert out.rounds_used <= 5
    assert sum(out.instantiations.values()) <= 10_000


def test_merging_self_feeding_fact_saturates():
    # f(f(x)) == f(x) merges each new term into an old class: the
    # representative-level dedup reaches a fixpoint and reports failed.
    body = b("==", call("f", call("f", iv("x"))), call("f", iv("x")))
    f = fact("idem", [("x", INT)], None, body, [call("f", iv("x"))])
    hyp = (b("==", call("f", il(0)), call("f", il(0))), H)
    goal = call("p", il(0), ty=BOOL)
    out = prove_exprs([hyp], [f], goal, G)
    assert out.status == "failed"
    # under a tighter round cap the same fact reports unknown(rounds)
    out2 = prove_exprs([hyp], [f], goal, G, limits=Limits(max_rounds=2))
    assert out2.status == "unknown" and out2.reason == "rounds"


def test_case_split_on_disjunction():
    # hyp: p(c) || q(c); fact p(i) ==> r(i); fact q(i) ==> r(i); goal r(c)
    f1 = fact("pr", [("i", INT)], call("p", iv("i"), ty=BOOL),
              call("r", iv("i"), ty=BOOL), [call("p", iv("i"), ty=BOOL)])
    f2 = fact("qr", [("i", INT)], call("q", iv("i"), ty=BOOL),
              call("r", iv("i"), ty=BOOL), [call("q", iv("i"), ty=BOOL)])
    hyp = (b("||", call("p", iv("c"), ty=BOOL), call("q", iv("c"), ty=BOOL)), H)
    out = prove_exprs([hyp], [f1, f2], call("r", iv("c"), ty=BOOL), G,
                      params={"c": INT})
    assert out.status == "verified"
    assert out.splits_used >= 1
    assert {o.path for o in out.used_core} >= {"pr", "qr", "hyp", "goal"}


def test_first_pending_is_newest_disjunction():
    st = ProverState()
    older = b("||", call("p", iv("c"), ty=BOOL), call("q", iv("c"), ty=BOOL))
    newer = b("||", call("r", iv("c"), ty=BOOL), call("s", iv("c"), ty=BOOL))
    st.assert_formula(compiled(older), True, {}, H)
    st.assert_formula(compiled(newer), True, {}, G)
    st.propagate()
    assert [d.origins for d in st.disjs] == [H, G]
    c = st.graph.lookup("%c", ())
    p, q, r, s = (st.graph.lookup(name, (c,)) for name in "pqrs")

    def items(d):
        """Each item's atom term and polarity."""
        return [(d.slots[node[1]], pos) for node, pos in d.items]

    assert items(st.first_pending()) == [(r, True), (s, True)]
    left, right, _ = st.split(st.first_pending())
    # the untaken half of the split disjunction is now the newest one
    assert items(right.first_pending()) == [(s, True)]
    assert items(left.first_pending()) == [(p, True), (q, True)]


def test_heavy_prelude_lemma_split_bound():
    """The prelude's most split-heavy lemma: oldest-first splitting took 328
    splits over its obligations, newest-first 80, and newest-first with
    skipped right branches takes 32."""
    run = verify_program([], RunConfig())
    result = run.results["prelude::seq::lemma_seq_contains_after_push"]
    assert result.passed
    assert sum(out.splits_used for _, out in result.obligations) <= 100


def test_time_budget_bounds_every_obligation():
    """A 2 ms budget stops the heavy lemma's ensures (about 10 ms
    unbounded), and no obligation runs far past its budget."""
    # a full collection of the garbage earlier tests left (tens of ms over
    # this process's heap) must not land inside the run it times
    gc.collect()
    run = verify_program([], RunConfig(limits=Limits(time_budget_ms=2)))
    result = run.results["prelude::seq::lemma_seq_contains_after_push"]
    [ensures] = [out for site, out in result.obligations
                 if site.kind == "ensures"
                 and (site.span.file, site.span.line) == ("<prelude>/seq.tv", 52)]
    assert (ensures.status, ensures.reason) == ("unknown", "time")
    durations = [out.duration_ms for r in run.results.values()
                 for _, out in r.obligations]
    assert durations and max(durations) < 50


def test_int_disequality_splits():
    # x <= y, x >= y |- x == y  needs the != split
    hyps = [(b("<=", iv("x"), iv("y")), H), (b("<=", iv("y"), iv("x")), H)]
    out = prove_exprs(hyps, [], b("==", iv("x"), iv("y")), G,
                      params={"x": INT, "y": INT})
    assert out.status == "verified"


def test_congruence_closure_chain():
    # a == b, b == c |- f(a) == f(c)
    hyps = [(b("==", iv("a"), iv("b")), frozenset([Origin("local", "h1")])),
            (b("==", iv("b"), iv("c")), frozenset([Origin("local", "h2")]))]
    out = prove_exprs(hyps, [], b("==", call("f", iv("a")), call("f", iv("c"))), G,
                      params={"a": INT, "b": INT, "c": INT})
    assert out.status == "verified"
    assert {o.path for o in out.used_core} >= {"h1", "h2"}


def test_core_excludes_irrelevant_facts():
    # two facts available; only one participates
    f1 = fact("used", [("i", INT)], call("p", iv("i"), ty=BOOL),
              call("q", iv("i"), ty=BOOL), [call("p", iv("i"), ty=BOOL)])
    f2 = fact("unused", [("i", INT)], None,
              b("==", call("g", iv("i")), call("g", iv("i"))),
              [call("g", iv("i"))])
    hyp = (call("p", iv("c"), ty=BOOL), H)
    out = prove_exprs([hyp], [f1, f2], call("q", iv("c"), ty=BOOL), G,
                      params={"c": INT})
    assert out.status == "verified"
    assert Origin("lemma", "used") in out.used_core
    assert Origin("lemma", "unused") not in out.used_core


def test_mod_constant_folding():
    out = prove_exprs([], [], b("==", b("%", il(7), il(2), INT), il(1)), G)
    assert out.status == "verified"


def test_mod_range_fact():
    # 0 <= x % 3 <= 2 holds without any hypotheses
    out = prove_exprs([], [], b("<=", b("%", iv("x"), il(3), INT), il(2)), G,
                      params={"x": INT})
    assert out.status == "verified"


@pytest.mark.parametrize("a, d, r, status", [
    (7, -3, 1, "verified"),
    (-7, -3, 2, "verified"),
    (-7, 3, 2, "verified"),
    (7, -3, -2, "failed"),
])
def test_mod_is_euclidean(a, d, r, status):
    """`%` is SMT-LIB's `mod`: the remainder lies in [0, |d|) for either sign
    of the divisor."""
    out = prove_exprs([], [], b("==", b("%", il(a), il(d), INT), il(r)), G)
    assert out.status == status
    assert eval_finite(b("==", b("%", il(a), il(d), INT), il(r)), 1) == (
        status == "verified")


def test_mod_range_for_a_negative_divisor():
    mod = b("%", iv("x"), il(-5), INT)
    goal = b("&&", b("<=", il(0), mod), b("<=", mod, il(4)))
    out = prove_exprs([], [], goal, G, params={"x": INT})
    assert out.status == "verified"


def test_mod_range_atoms_added_once_per_term():
    # 0 <= x % 5 <= 4 joins the arithmetic when the term is made, not each
    # time a formula mentions it
    st = ProverState()
    mod = b("%", iv("x"), il(5), INT)
    st.assert_formula(compiled(b("<=", il(1), mod)), True, {}, H)
    st.assert_formula(compiled(b("<", mod, il(3))), True, {}, H)
    st.propagate()
    g = st.graph
    t = g.lookup("%", (g.lookup("%x", ()), g.lookup("#i5", ())))
    ranges = [a for a in st.arith_atoms if t in a[1:3] and not a[3]]
    assert [(k, l, r) for k, l, r, _ in ranges] == [
        ("le", g.lookup("#i0", ()), t), ("le", t, g.lookup("#i4", ()))]
    assert len(st.arith_atoms) == 4


def test_existential_hypothesis_skolemized():
    from tunav.syntax.ast import Binder, Exists
    ex = Exists(SPAN, binders=[Binder("w", INT)],
                body=call("p", iv("w"), ty=BOOL), ty=BOOL)
    f = fact("pq", [("i", INT)], call("p", iv("i"), ty=BOOL),
             BoolLit(SPAN, value=False, ty=BOOL), [call("p", iv("i"), ty=BOOL)])
    # exists w. p(w), and forall i. p(i) ==> false: contradiction, so anything holds
    out = prove_exprs([(ex, H)], [f], call("q", il(0), ty=BOOL), G)
    assert out.status == "verified"


def test_nat_binder_adds_bound():
    # fact: forall n: nat. trigger f(n): f(n) == n, so f(-1) == -1 is NOT derivable
    NAT = Type("nat")
    f = fact("defn", [("n", NAT)], None,
             b("==", call("f", iv("n")), iv("n")), [call("f", iv("n"))])
    goal = b("==", call("f", il(-1)), il(-1))
    out = prove_exprs([], [f], goal, G)
    assert out.status == "failed"
    goal2 = b("==", call("f", il(4)), il(4))
    out2 = prove_exprs([], [f], goal2, G)
    assert out2.status == "verified"


# -- connectives decided inside a disjunction --------------------------------------


def bv(name):
    return Var(SPAN, name=name, ty=BOOL)


def nb(e):
    return Not(SPAN, arg=e, ty=BOOL)


@pytest.mark.parametrize("facts, disj, status", [
    # a ==> b holds because a is false, or because b is true
    (["!a"], ("==>", "==>"), "verified"),
    (["b"], ("==>", "==>"), "verified"),
    (["a", "!b"], ("==>", "==>"), "failed"),
    # a ==> b is false, so c must hold
    (["a", "!b"], ("==>", "||"), "verified"),
    (["!a"], ("==>", "||"), "failed"),
    (["b"], ("==>", "||"), "failed"),
    # a <==> b, a == b and a != b decided as items
    (["a", "b"], ("<==>", "==>"), "verified"),
    (["!a", "!b"], ("<==>", "==>"), "verified"),
    (["a", "!b"], ("<==>", "==>"), "failed"),
    (["a", "b"], ("==", "==>"), "verified"),
    (["a", "!b"], ("!=", "==>"), "verified"),
    (["!a", "!b"], ("!=", "==>"), "failed"),
])
def test_connective_item_decided_without_a_split(facts, disj, status):
    """`(a inner b) outer c`, assumed with literals that decide the inner
    item: propagation alone proves `c`, or leaves it open."""
    inner, outer = disj
    hyps = [(nb(bv(f[1:])) if f.startswith("!") else bv(f), H) for f in facts]
    hyps.append((b(outer, b(inner, bv("a"), bv("b")), bv("c")), H))
    out = prove_exprs(hyps, [], bv("c"), G)
    assert (out.status, out.splits_used) == (status, 0)


def verify_text(tmp_path, text, *flags):
    p = tmp_path / "m.tv"
    p.write_text(text)
    return cli_main(["verify", str(p), "--no-timing", *flags])


@pytest.mark.parametrize("sort, code", [("nat", 0), ("int", 1)])
def test_nat_skolem_is_bounded_below(tmp_path, capsys, sort, code):
    """A `nat` witness of a hypothesis is at least 0, and that bound alone
    proves the goal's `0 <= k`."""
    assert verify_text(tmp_path, f"""
spec fn f(i: int) -> int;
proof fn t()
    requires exists|k: {sort}| f(k) == 0
    ensures exists|k: int| 0 <= k && f(k) == 0
{{ }}
""") == code


def test_trigger_patterns_with_literal_arguments(tmp_path, capsys):
    """A literal in a trigger matches only a term with that argument."""
    assert verify_text(tmp_path, """
spec fn g(x: int, y: int) -> int;
spec fn h(x: int, b: bool) -> int;
broadcast axiom fn gz(x: int) ensures #[trigger] g(x, 0) == x;
broadcast axiom fn ht(x: int) ensures #[trigger] h(x, true) == x;
proof fn g_zero() ensures g(5, 0) == 5 { broadcast use {gz}; }
proof fn g_one() ensures g(5, 1) == 5 { broadcast use {gz}; }
proof fn h_true() ensures h(5, true) == 5 { broadcast use {ht}; }
proof fn h_false() ensures h(5, false) == 5 { broadcast use {ht}; }
""") == 1
    out = capsys.readouterr().out
    assert [line.split()[:2] for line in out.splitlines()
            if not line.startswith(" ")][:4] == [
        ["PASS", "m::g_zero"], ["FAIL", "m::g_one"],
        ["PASS", "m::h_true"], ["FAIL", "m::h_false"]]


def test_negation_inside_a_term_is_an_error(tmp_path, capsys):
    assert verify_text(tmp_path, """
spec fn p(i: int) -> bool;
spec fn q(b: bool) -> int;
proof fn t(x: int) ensures q(!p(x)) == q(!p(x)) { }
""") == 2
    assert capsys.readouterr().err.endswith("m.tv:4:30: not a term: Not\n")


def test_instantiation_limit_gives_unknown(tmp_path, capsys):
    assert verify_text(tmp_path, """
spec fn f(i: int) -> int;
broadcast axiom fn ax(x: int) ensures #[trigger] f(x) > 0;
proof fn two(a: int, b: int) ensures f(a) + f(b) > 1 { broadcast use {ax}; }
""", "--max-instantiations", "1") == 1
    assert "ensures unknown (instantiations)" in capsys.readouterr().out


# -- soundness vs finite oracle ------------------------------------------------------


def test_eval_finite_spec_examples():
    from tunav.syntax.ast import Binder, Forall
    q = Forall(SPAN, binders=[Binder("i", INT)],
               body=b("<", iv("i"), il(3)), ty=BOOL)
    assert eval_finite(q, 3) is True
    q2 = Forall(SPAN, binders=[Binder("i", INT)],
                body=b("<", iv("i"), il(2)), ty=BOOL)
    assert eval_finite(q2, 3) is False


def random_obligation(rng, n):
    """Hypotheses + goal over f: [0,n)->[0,n), p: [0,n)->bool, vars c, d."""
    names = ["c", "d"]

    def tm():
        r = rng.random()
        if r < 0.35:
            return iv(rng.choice(names))
        if r < 0.6:
            return il(rng.randint(0, n - 1))
        return call("f", iv(rng.choice(names)))

    def atom():
        r = rng.random()
        if r < 0.4:
            return call("p", tm(), ty=BOOL)
        op = rng.choice(["==", "<=", "<"])
        return b(op, tm(), tm())

    def lit():
        a = atom()
        from tunav.syntax.ast import Not
        return Not(SPAN, arg=a, ty=BOOL) if rng.random() < 0.3 else a

    def clause():
        if rng.random() < 0.4:
            return b(rng.choice(["||", "&&", "==>"]), lit(), lit())
        return lit()

    hyps = [clause() for _ in range(rng.randint(1, 3))]
    goal = clause()
    facts, bodies = [], []
    if rng.random() < 0.5:
        body = b(rng.choice(["==>", "||"]), call("p", iv("x"), ty=BOOL),
                 b(rng.choice(["<=", "=="]), call("f", iv("x")), iv("x")))
        facts.append(fact(f"rf", [("x", INT)], None, body, [call("f", iv("x"))]))
        bodies.append(body)
    return hyps, facts, bodies, goal


@pytest.mark.parametrize("seed", range(40))
def test_soundness_against_finite_oracle(seed):
    rng = random.Random(seed)
    n = 3
    hyps, facts, bodies, goal = random_obligation(rng, n)
    out = prove_exprs([(h, H) for h in hyps], facts,
                      goal, G, limits=Limits(max_rounds=3, max_instantiations=300),
                      params={"c": INT, "d": INT})
    if out.status != "verified":
        return
    # Verified => the implication holds for every sampled interpretation
    from tunav.syntax.ast import Binder, Forall
    for k in range(30):
        irng = random.Random(1000 * seed + k)
        env = {"c": irng.randrange(n), "d": irng.randrange(n)}
        funcs = {
            "f": {i: irng.randrange(n) for i in range(n)},
            "p": {i: irng.random() < 0.5 for i in range(n)},
        }
        ok_hyps = all(eval_finite(h, n, env, funcs) for h in hyps)
        for body in bodies:
            q = Forall(SPAN, binders=[Binder("x", INT)], body=body, ty=BOOL)
            ok_hyps = ok_hyps and eval_finite(q, n, env, funcs)
        if not ok_hyps:
            continue
        assert eval_finite(goal, n, env, funcs), (
            f"unsound: seed={seed} interp={k} goal false under true hypotheses")


# -- skipping right branches -------------------------------------------------------


def exhaustive_search(state, limits, t0):
    """A frozen copy of the search loop from before right branches could be
    skipped: every split's right branch runs. (status, reason, core)."""
    shared = state.shared
    core = set()
    stack = [state]
    while stack:
        if (time.monotonic() - t0) * 1000.0 > limits.time_budget_ms:
            return "unknown", "time", core
        state = stack.pop()
        state.propagate()
        if state.conflict is not None:
            core |= state.conflict
            continue
        d = state.first_pending()
        if d is not None:
            if shared.splits >= limits.max_splits:
                return "unknown", "splits", core
            left, right, _ = state.split(d)
            stack.append(right)
            stack.append(left)
            continue
        if state.rounds_done >= limits.max_rounds:
            return "unknown", "rounds", core
        new = state.instantiate_round()
        if shared.inst_total > limits.max_instantiations:
            return "unknown", "instantiations", core
        if new == 0:
            return "failed", None, core
        stack.append(state)
    return "verified", None, core


def exhaustive_prove(ground, facts, goal, goal_origins, limits=Limits(),
                     params=None):
    """`prove` over `exhaustive_search`."""
    t0 = time.monotonic()
    st = ProverState()
    for name in params or {}:
        st.graph.new_term(f"%{name}", ())
    for f, origins in ground:
        st.assert_formula(f, True, {}, origins)
    for f in facts:
        st.add_fact(f)
    st.assert_formula(goal, False, {}, goal_origins)
    status, reason, core = exhaustive_search(st, limits, t0)
    shared = st.shared
    core = {o for o in core if o.kind != "decision"} if status == "verified" else ()
    return Outcome(status, reason, frozenset(core), dict(shared.inst_counts),
                   shared.max_rounds_seen, shared.splits,
                   (time.monotonic() - t0) * 1000.0)


def search_skipped_branches(monkeypatch, limits=Limits()) -> list:
    """Make `prove` still search, in full and on counters of its own, each
    right branch it skips. Returns the statuses those searches ended in."""
    rights = {}
    split = ProverState.split
    refuted = prover._refuted
    ended = []

    def recording(state, d):
        left, right, decision = split(state, d)
        rights[decision] = right
        return left, right, decision

    def searching(decision, core):
        if not refuted(decision, core):
            return False
        right = rights.pop(decision)
        right.shared = prover._Shared()
        with monkeypatch.context() as m:
            m.setattr(ProverState, "split", split)
            ended.append(exhaustive_search(right, limits, time.monotonic())[0])
        return True

    monkeypatch.setattr(ProverState, "split", recording)
    monkeypatch.setattr(prover, "_refuted", searching)
    return ended


def statuses(run):
    return {(task, i): out.status for task, r in run.results.items()
            for i, (_, out) in enumerate(r.obligations)}


def test_right_branch_skipped_when_left_closes_without_its_decision():
    # p(c) || q(c) splits first; the left branch's instantiation of
    # g(x) == 2 meets g(c) == 1, a conflict that uses neither disjunct
    f = fact("g2", [("x", INT)], None, b("==", call("g", iv("x")), il(2)),
             [call("g", iv("x"))])
    disj = frozenset([Origin("local", "disj")])
    hyps = [(b("||", call("p", iv("c"), ty=BOOL), call("q", iv("c"), ty=BOOL)),
             disj),
            (b("==", call("g", iv("c")), il(1)), H)]
    false = BoolLit(SPAN, value=False, ty=BOOL)
    out = prove_exprs(hyps, [f], false, G, params={"c": INT})
    assert out.verified and out.splits_used == 1
    assert out.instantiations == {"g2": 1}  # the right branch never ran
    assert {o.path for o in out.used_core} == {"g2", "hyp"}
    full = exhaustive_prove([(compiled(h), o) for h, o in hyps], [f],
                            compiled(false), G, params={"c": INT})
    assert full.verified and full.instantiations == {"g2": 2}


def test_instance_matched_on_left_branch_term_keeps_the_decision():
    # the left branch skolemizes exists w. p(w); matching forall x {p(x)}:
    # r(c) on p(!sk) refutes it, and only through the decision, so the
    # right branch, where no p term exists, must still run (and fails)
    from tunav.syntax.ast import Binder, Exists
    ex = Exists(SPAN, binders=[Binder("w", INT)],
                body=call("p", iv("w"), ty=BOOL), ty=BOOL)
    f = fact("p_to_r", [("x", INT)], None, call("r", iv("c"), ty=BOOL),
             [call("p", iv("x"), ty=BOOL)])
    hyps = [(b("||", ex, call("q", iv("c"), ty=BOOL)), H)]
    out = prove_exprs(hyps, [f], call("r", iv("c"), ty=BOOL), G,
                      params={"c": INT})
    assert (out.status, out.splits_used) == ("failed", 1)
    assert out.instantiations == {"p_to_r": 1}


def binary_counter(n):
    """x_i == 0 || x_i == 1 for i < n, and x_0 + ... + x_(n-1) == n + 1:
    every conflict uses every decision above it, so no right branch is
    skipped. Arithmetic fixes the last x_i, so the search takes 2^(n-1) - 1
    splits."""
    xs = [f"x{i}" for i in range(n)]
    hyps = [(b("||", b("==", iv(x), il(0)), b("==", iv(x), il(1))), H)
            for x in xs]
    total = iv(xs[0])
    for x in xs[1:]:
        total = b("+", total, iv(x), INT)
    hyps.append((b("==", total, il(n + 1)), H))
    return hyps, {x: INT for x in xs}


def test_right_branch_searched_when_left_used_its_decision():
    hyps, params = binary_counter(5)
    false = BoolLit(SPAN, value=False, ty=BOOL)
    out = prove_exprs(hyps, [], false, G, params=params)
    assert out.verified and out.splits_used == 15
    assert out.used_core == H
    full = exhaustive_prove([(compiled(h), o) for h, o in hyps], [],
                            compiled(false), G, params=params)
    assert full.splits_used == 15


def test_limits_bound_search_with_deferred_right_branches():
    """Right branches wait on the stack while their left subtrees run; the
    split and time limits still end the search, with their reasons."""
    hyps, params = binary_counter(12)
    false = BoolLit(SPAN, value=False, ty=BOOL)
    out = prove_exprs(hyps, [], false, G, params=params,
                      limits=Limits(max_splits=40))
    assert (out.status, out.reason, out.splits_used) == ("unknown", "splits", 40)
    hyps, params = binary_counter(20)
    gc.collect()
    out = prove_exprs(hyps, [], false, G, params=params,
                      limits=Limits(time_budget_ms=50, max_splits=10**9))
    assert (out.status, out.reason) == ("unknown", "time")
    assert 50 <= out.duration_ms < 500


def test_skipped_right_branches_close_on_projects(monkeypatch):
    """Each right branch skipped over the corpus, the prelude and a project
    of two renamed corpus copies closes when searched in full, and the
    exhaustive search gives every obligation the same verdict."""
    ended = search_skipped_branches(monkeypatch)
    config = RunConfig(jobs=1)
    for asts in (load_sources(CORPUS), [], synth_like_asts(2)):
        skipping = statuses(verify_program(asts, config))
        with monkeypatch.context() as m:
            m.setattr(vcgen, "prove", exhaustive_prove)
            assert statuses(verify_program(asts, config)) == skipping
        assert set(skipping.values()) == {"verified"}
    assert len(ended) > 100 and set(ended) == {"verified"}


def test_skipped_right_branches_close_on_random_obligations(monkeypatch):
    """criterion_04's 1000 random obligations: each skipped right branch
    closes, and no verdict moves from verified."""
    limits = Limits(max_rounds=3, max_instantiations=300)
    ended = search_skipped_branches(monkeypatch, limits)
    moved = []
    for seed in range(1000):
        hyps, facts, _, goal = random_obligation(random.Random(seed), 3)
        args = ([(compiled(h), H) for h in hyps], facts, compiled(goal), G,
                limits, {"c": INT, "d": INT})
        skipping = prove(*args).status
        full = exhaustive_prove(*args).status
        if skipping != full:
            moved.append((seed, full, skipping))
    assert moved == []
    assert len(ended) > 0 and set(ended) == {"verified"}


@pytest.mark.parametrize("strategy", ["conservative", "all-triggers"])
def test_no_decision_origin_leaves_the_engine(strategy, monkeypatch, tmp_path,
                                             capsys):
    """Splits label their left literals with decision origins; none reaches
    an outcome's core, the usage report, metrics or SMT-LIB files."""
    decisions = []
    cores = []
    split = ProverState.split
    prove_ = vcgen.prove

    def recording(state, d):
        left, right, decision = split(state, d)
        decisions.append(decision)
        return left, right, decision

    def proving(*args):
        out = prove_(*args)
        cores.append(out.used_core)
        return out

    monkeypatch.setattr(ProverState, "split", recording)
    monkeypatch.setattr(vcgen, "prove", proving)
    metrics = tmp_path / "m.json"
    smt = tmp_path / "smt"
    code = cli_main(["verify", *CORPUS, "--trigger-strategy", strategy,
                     "--broadcast-usage-info", "--no-timing",
                     "--metrics-out", str(metrics), "--emit-smtlib", str(smt)])
    assert code == 0
    assert len(decisions) == 102 and len(cores) == 176
    assert all(o.kind != "decision" for core in cores for o in core)
    texts = [capsys.readouterr().out, metrics.read_text()]
    texts += [p.read_text() for p in smt.iterdir()]
    assert "checking this function used these broadcasted lemmas" in texts[0]
    assert not any("decision" in text for text in texts)
