import glob
import os
from collections import deque

import pytest

from test_resolve_snapshot import renamed_corpus
from tunav.driver import RunConfig, load_sources, resolve_with_prelude
from tunav.engine.prover import Limits
from tunav.errors import TunavError
from tunav.resolve import entry_imports, skolem
from tunav.syntax import parse_module
from tunav.syntax.ast import (
    Assert,
    AssertBy,
    BinOp,
    Binder,
    Call,
    Forall,
    LemmaCall,
    Let,
    SourceSpan,
    Type,
    UseStmt,
    Var,
    walk_exprs,
    walk_stmts,
)
from tunav.syntax.render import render_expr
from tunav.vcgen import (
    VcgenRun,
    _ObligationBuilder,
    _copy_expr,
    definitional_axiom,
    generate_obligations,
    lower_quantified_fact,
    prove_obligation,
)
from tunav import triggers as trig

SPAN = SourceSpan("t.tv", 0, 1, 1, 1)
INT = Type("int")
BOOL = Type("bool")


def program_of(src: str, module: str = "user"):
    return resolve_with_prelude([parse_module(src, f"{module}.tv", module=module)])


def prove_task(src: str, task: str, config: RunConfig = RunConfig(),
               limits: Limits = Limits()):
    program, registry = program_of(src)
    obs = generate_obligations(f"user::{task}", VcgenRun(program, registry, config))
    return [prove_obligation(ob, limits) for ob in obs], obs


# -- config -------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["all-triggers", "eager", ""])
def test_run_config_rejects_an_unknown_strategy(strategy):
    """An unknown strategy, the CLI's spelling "all-triggers" included, fails
    when the config is made, not when a quantifier first needs triggers."""
    with pytest.raises(TunavError, match=r"RunConfig\.strategy: unknown trigger strategy"):
        RunConfig(strategy=strategy)
    for known in (trig.CONSERVATIVE, trig.ALL_TRIGGERS):
        assert RunConfig(strategy=known).strategy == known


@pytest.mark.parametrize("jobs", [0, -1])
def test_run_config_rejects_jobs_below_one(jobs):
    with pytest.raises(TunavError, match=rf"RunConfig\.jobs must be at least 1, not {jobs}"):
        RunConfig(jobs=jobs)
    assert RunConfig(jobs=1).jobs == 1


def test_run_config_rejects_negative_fuel():
    with pytest.raises(TunavError, match=r"RunConfig\.fuel must be at least 0, not -1"):
        RunConfig(fuel=-1)
    assert RunConfig(fuel=0).fuel == 0


# -- lowering -------------------------------------------------------------------


def test_lower_push_contains_lemma():
    program, _ = program_of("proof fn touch(a: Seq<int>) { let b = a.push(0); }")
    inst = program.instances["prelude::seq::lemma_seq_contains_after_push<int>"]
    qf = lower_quantified_fact(inst, trig.CONSERVATIVE)
    assert [n for n, _ in qf.binders] == ["s", "v", "x"]
    assert qf.hypothesis is None
    assert isinstance(qf.conclusion, BinOp) and qf.conclusion.op == "<==>"
    # manual trigger: the marked s.push(v).contains(x) application
    assert qf.triggers.strategy_used == trig.MANUAL
    (group,) = qf.triggers.groups
    (t,) = group.exprs
    assert isinstance(t, Call) and t.name == "contains"
    assert qf.origin.kind == "lemma"
    assert qf.origin.path == "prelude::seq::lemma_seq_contains_after_push"


def test_lower_add_len_axiom():
    program, _ = program_of("proof fn touch(a: Seq<int>) { let b = a.push(0); }")
    inst = program.instances["prelude::seq::axiom_seq_add_len<int>"]
    qf = lower_quantified_fact(inst, trig.CONSERVATIVE)
    (group,) = qf.triggers.groups
    (t,) = group.exprs
    assert t.name == "len" and t.args[0].name == "add"
    assert qf.origin.kind == "axiom"


def test_lower_requires_becomes_hypothesis():
    src = """
spec fn g(i: int) -> int;
broadcast proof fn positive_step(a: int)
    requires a > 0
    ensures #[trigger] g(a) == g(a)
{ }
"""
    program, _ = program_of(src)
    qf = lower_quantified_fact(program.instances["user::positive_step"],
                               trig.CONSERVATIVE)
    assert qf.hypothesis is not None and qf.hypothesis.op == ">"


# -- definitional axioms ------------------------------------------------------------


def test_definitional_axiom_is_even():
    src = """
spec fn is_even(i: int) -> bool { i % 2 == 0 }
proof fn touch(x: int) { assert(is_even(2) || true); }
"""
    program, _ = program_of(src)
    facts = definitional_axiom(program.instances["user::is_even"], 1, program,
                               trig.CONSERVATIVE)
    assert len(facts) == 1
    qf = facts[0]
    assert qf.conclusion.op == "<==>"  # bool-valued: iff
    (group,) = qf.triggers.groups
    assert group.exprs[0].name == "is_even"
    assert qf.origin.kind == "definition"


def test_definitional_axiom_fuel_zero_empty():
    src = "spec fn d(i: int) -> int { i + 1 }\nproof fn touch(x: int) { assert(d(x) == d(x)); }"
    program, _ = program_of(src)
    assert definitional_axiom(program.instances["user::d"], 0, program,
                              trig.CONSERVATIVE) == []


EVEN_REC = """
spec fn even_rec(n: nat) -> bool { n == 0 || (n >= 2 && even_rec(n - 2)) }
proof fn check2()
    ensures even_rec(2)
{ }
proof fn check4()
    ensures even_rec(4)
{ }
"""


def test_recursive_fuel_levels():
    # manual unfolding oracle:
    #   even_rec(2) = 2==0 || (2>=2 && even_rec(0))
    #              -> needs a second unfold: even_rec(0) = 0==0 || ... = true
    # so even_rec(2) takes exactly 2 unfoldings, even_rec(4) exactly 3.
    program, _ = program_of(EVEN_REC)
    inst = program.instances["user::even_rec"]
    assert definitional_axiom(inst, 2, program, trig.CONSERVATIVE)[0].key.endswith("@2")
    assert len(definitional_axiom(inst, 2, program, trig.CONSERVATIVE)) == 2
    (outs1, _) = prove_task(EVEN_REC, "check2", RunConfig(fuel=1))
    assert outs1[0].status == "failed"
    (outs2, _) = prove_task(EVEN_REC, "check2", RunConfig(fuel=2))
    assert outs2[0].status == "verified"
    (outs4a, _) = prove_task(EVEN_REC, "check4", RunConfig(fuel=2))
    assert outs4a[0].status == "failed"
    (outs4b, _) = prove_task(EVEN_REC, "check4", RunConfig(fuel=3))
    assert outs4b[0].status == "verified"


def test_nat_return_bodiless_gets_range_fact():
    src = """
spec fn size(x: int) -> nat;
proof fn nonneg(x: int)
    ensures size(x) >= 0
{ }
"""
    outs, _ = prove_task(src, "nonneg")
    assert outs[0].status == "verified"


# -- obligations ---------------------------------------------------------------------


PRIME_SRC = """
spec fn divides(n: int, k: nat) -> bool { n % k == 0 }
spec fn is_prime(n: nat) -> bool { forall|k: nat| 2 <= k < n ==> !divides(n, k) }
spec fn is_even(i: int) -> bool { divides(i, 2) }

proof fn even_gt_2_isnt_prime(i: nat)
    requires i > 2 && is_even(i)
    ensures !is_prime(i)
{ }
"""


def test_even_gt_2_isnt_prime_obligation_and_context():
    program, registry = program_of(PRIME_SRC)
    obs = generate_obligations("user::even_gt_2_isnt_prime",
                               VcgenRun(program, registry))
    assert len(obs) == 1  # exactly the ensures
    keys = {qf.key for qf in obs[0].context.facts}
    assert "user::is_prime" in keys
    assert "user::is_even" in keys
    assert "user::divides" in keys
    out = prove_obligation(obs[0])
    assert out.status == "verified"


def test_obligation_counting():
    src = """
proof fn four(x: int)
    requires x > 0
    ensures x >= 1
{
    assert(x > 0);
    assert(x + 1 > 1);
    assert(x * 1 == x);
}
"""
    program, registry = program_of(src)
    obs = generate_obligations("user::four", VcgenRun(program, registry))
    assert len(obs) == 4  # 3 asserts + 1 ensures
    assert [ob.site.kind for ob in obs] == ["assert"] * 3 + ["ensures"]


LEMMA_PRE_SRC = """
proof fn helper(a: int, b: int)
    requires a > 0, b > a
    ensures a + b > 1
{ }
proof fn caller(x: int)
    requires x > 5
{
    helper(x, x + 1);
}
"""


def test_lemma_call_preconditions():
    program, registry = program_of(LEMMA_PRE_SRC)
    obs = generate_obligations("user::caller", VcgenRun(program, registry))
    pre = [ob for ob in obs if ob.site.kind == "lemma-pre"]
    assert len(pre) == 2
    outs = [prove_obligation(ob) for ob in obs]
    assert all(o.status == "verified" for o in outs)


LEMMA_POST_SRC = """
spec fn g(i: int) -> int;
proof fn fact_of_seven()
    ensures g(7) == 7
{ }
proof fn uses_call(x: int)
    ensures g(7) >= 7
{
    fact_of_seven();
}
"""


def test_lemma_call_postcondition_usable():
    outs, _ = prove_task(LEMMA_POST_SRC, "uses_call")
    assert all(o.status == "verified" for o in outs)


NAT_ARG_SRC = """
proof fn wants_nat(k: nat)
    ensures k >= 0
{ }
proof fn passes_int(x: int)
    requires x > 3
{
    wants_nat(x);
}
proof fn passes_bad(x: int)
{
    wants_nat(x);
}
"""


def test_nat_argument_precondition():
    outs_ok, _ = prove_task(NAT_ARG_SRC, "passes_int")
    assert all(o.status == "verified" for o in outs_ok)
    outs_bad, _ = prove_task(NAT_ARG_SRC, "passes_bad")
    assert any(o.status == "failed" for o in outs_bad)


CAPTURE_SRC = """
spec fn f(i: int) -> int;
proof fn l(x: int)
    requires x == 0
    ensures forall|y: int| #[trigger] f(y) * x == 0
{ }
proof fn wrong(ARG: int)
    requires ARG == 0
    ensures forall|z: int| #[trigger] f(z) * z == 0
{
    l(ARG);
}
proof fn l2(x: int)
    requires forall|y: int| #[trigger] f(y) >= x
    ensures f(0) >= x
{ }
proof fn bad(ARG: int)
    requires forall|z: int| #[trigger] f(z) >= z
    ensures f(0) >= ARG
{
    l2(ARG);
}
"""


@pytest.mark.parametrize("arg", ["y", "w"])
def test_lemma_call_substitution_does_not_capture(arg):
    """Substituting the caller's `y` for `x` under the callee's `forall|y|`
    must not bind it: `wrong`'s ensures and `bad`'s lemma precondition do
    not follow, whatever the caller's parameter is called."""
    src = CAPTURE_SRC.replace("ARG", arg)
    got = {}
    for task in ("wrong", "bad"):
        outs, obs = prove_task(src, task)
        got[task] = [(ob.site.kind, out.status) for ob, out in zip(obs, outs)]
    assert got == {"wrong": [("lemma-pre", "verified"), ("ensures", "failed")],
                   "bad": [("lemma-pre", "failed"), ("ensures", "verified")]}


def test_capture_avoiding_names_stay_distinct():
    """Two binders that would capture get distinct fresh names, and a
    nested binder of the same name shadows the outer one's renaming."""
    x, y = Var(SPAN, name="x", ty=INT), Var(SPAN, name="y", ty=INT)
    inner = Forall(SPAN, binders=[Binder("y", INT)],
                   body=BinOp(SPAN, op="<", lhs=x, rhs=y, ty=BOOL), ty=BOOL)
    outer = Forall(SPAN, binders=[Binder("y", INT), Binder("z", INT)],
                   body=BinOp(SPAN, op="&&", lhs=BinOp(SPAN, op="<", lhs=x, rhs=y,
                                                       ty=BOOL),
                              rhs=inner, ty=BOOL), ty=BOOL)
    got = _copy_expr(outer, {"x": BinOp(SPAN, op="+", lhs=y, rhs=Var(SPAN, name="z"),
                                        ty=INT)}, {})
    assert render_expr(got) == (
        "forall|y': int, z': int| y + z < y' && (forall|y': int| y + z < y')")


ASSERT_BY_SRC = """
proof fn scoped(a: Seq<int>)
    requires a.contains(5)
{
    assert(a.push(1).contains(5)) by {
        broadcast use {lemma_seq_contains_after_push};
    }
    assert(a.push(2).contains(5));
}
"""


def test_assert_by_block_scoping():
    program, registry = program_of(ASSERT_BY_SRC)
    obs = generate_obligations("user::scoped", VcgenRun(program, registry))
    # block obligation sees the locally imported lemma, the later one does not
    by_ob = obs[0]
    later = obs[1]
    assert any(q.origin.path.endswith("contains_after_push")
               for q in by_ob.context.facts)
    assert not any(q.origin.path.endswith("contains_after_push")
                   for q in later.context.facts)
    outs = [prove_obligation(ob) for ob in obs]
    assert outs[0].status == "verified"
    assert outs[1].status == "failed"  # the lemma is gone outside the block
    # and the block's head persists for later statements
    head_hyps = [o for _, o, _ in later.context.ground if o.path == "assert"]
    assert head_hyps


def test_instances_once_per_pair_metrics_regression():
    # a hypothetical second trigger {s1.len(), s2.len()} on the add_len shape
    # instantiates once per PAIR of len terms: k distinct lens -> k^2 instances
    from tunav.engine import Origin, make_fact, prove
    from tunav.engine.prover import compile_formula
    from tunav.syntax.ast import IntLit, SourceSpan, Type, Var

    SPAN = SourceSpan("t", 0, 1, 1, 1)
    INT, BOOL, SEQ = Type("int"), Type("bool"), Type("Seq", (Type("int"),))

    def sv(n):
        return Var(SPAN, name=n, ty=SEQ)

    def lencall(arg):
        c = Call(SPAN, name="len", args=[arg], ty=INT)
        c.resolved = "len"
        return c

    def addcall(a, b):
        c = Call(SPAN, name="add", args=[a, b], ty=SEQ)
        c.resolved = "add"
        return c

    s1, s2 = sv("s1"), sv("s2")
    concl = BinOp(SPAN, op="==", lhs=lencall(addcall(s1, s2)),
                  rhs=BinOp(SPAN, op="+", lhs=lencall(s1), rhs=lencall(s2),
                            ty=INT), ty=BOOL)
    fact = make_fact("pairs", "pairs", [("s1", SEQ), ("s2", SEQ)], None, concl,
                     [(lencall(s1), lencall(s2))],
                     frozenset([Origin("axiom", "pairs")]), trig.CONSERVATIVE)
    hyps = []
    for name, v in (("a", 1), ("b", 2), ("c", 3)):
        hyps.append((compile_formula(BinOp(SPAN, op="==", lhs=lencall(sv(name)),
                                           rhs=IntLit(SPAN, value=v, ty=INT),
                                           ty=BOOL), trig.CONSERVATIVE),
                     frozenset([Origin("local", name)])))
    goal = Call(SPAN, name="p", args=[IntLit(SPAN, value=0, ty=INT)], ty=BOOL)
    goal.resolved = "p"
    out = prove(hyps, [fact], compile_formula(goal, trig.CONSERVATIVE),
                frozenset([Origin("goal", "g")]),
                limits=Limits(max_rounds=1),
                params={"a": SEQ, "b": SEQ, "c": SEQ})
    assert out.instantiations["pairs"] == 9  # 3 lens -> 3x3 pairs


def test_const_declarations_usable_in_proofs():
    src = """
const limit: int;
proof fn above_limit(x: int)
    requires x > limit, limit > 3
    ensures x > 4
{ }
"""
    outs, _ = prove_task(src, "above_limit")
    assert outs[0].status == "verified"


CHAIN_SRC = """
sort Tag;
spec fn before(a: Tag, b: Tag) -> bool;
broadcast axiom fn axiom_before_trans(a: Tag, b: Tag, c: Tag)
    requires #[trigger] before(a, b), #[trigger] before(b, c)
    ensures before(a, c);
proof fn chain(w: Tag, x: Tag, y: Tag, z: Tag)
    requires before(w, x), before(x, y), before(y, z)
    ensures before(w, z)
{
    broadcast use {axiom_before_trans};
}
"""


def test_user_sort_transitivity_chain():
    outs, _ = prove_task(CHAIN_SRC, "chain")
    assert outs[0].status == "verified"


def test_monotone_automation_on_small_program():
    # adding facts to the context never turns verified into failed
    src = """
proof fn simple(a: Seq<int>)
    ensures a.push(9).len() == a.len() + 1
{ }
"""
    outs_plain, _ = prove_task(src, "simple")
    assert outs_plain[0].status == "verified"
    program, registry = program_of(src)
    cfg = RunConfig(ambient=("prelude::seq::group_seq_properties",
                               "prelude::set::group_set_properties"))
    obs = generate_obligations("user::simple", VcgenRun(program, registry, cfg))
    out = prove_obligation(obs[0])
    assert out.status == "verified"


def _types_in(t: Type):
    yield t
    for a in t.args:
        yield from _types_in(a)


def test_owners_match_the_skolem_sorts_of_the_type_arguments():
    """An instance's owners are the proof fns one of whose skolem sorts its
    type arguments mention, also inside another sort (`Seq<!task::A>`), and
    a task sees a skolem-typed instance only if it owns it."""
    nested = parse_module("proof fn nest<A>(s: Seq<Seq<A>>) ensures s.len() >= 0 { }",
                          "nest.tv", module="nest")
    corpus = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "corpus", "*.tv")))
    program, registry = resolve_with_prelude(load_sources(corpus) + [nested])
    skolems = {task: {skolem(task, tp) for tp in program.symbols[task].type_params}
               for task in program.proof_fns()}
    owned = {}
    for inst in program.instances.values():
        mentioned = {t for targ in inst.targs for t in _types_in(targ)}
        assert inst.owners == {task for task, sorts in skolems.items()
                               if sorts & mentioned}
        if inst.owners:
            owned[inst.symbol] = inst.owners
    assert len(owned) > 20 and all(len(tasks) == 1 for tasks in owned.values())
    assert owned["prelude::seq::len<prelude::seq::Seq<!nest::nest::A>>"] == {"nest::nest"}
    run = VcgenRun(program, registry)
    seen = {task: [inst.symbol for inst in _ObligationBuilder(task, run)._instances_for(
                "prelude::seq::group_seq_properties") if inst.owners]
            for task in program.proof_fns()}
    assert seen["nest::nest"]
    assert all(owned[sym] == {task} for task, syms in seen.items() for sym in syms)


SHARED_USE_SRC = """
proof fn first(a: Seq<int>) {
    broadcast use {group_seq_properties};
    assert(a.push(3).contains(3));
}
proof fn second(a: Seq<int>) {
    broadcast use {lemma_seq_contains_after_push};
    assert(a.push(4).contains(4));
}
"""


def test_contexts_share_lowered_fact_objects():
    """Every context of every task of a run holds the run's one lowered
    object for a fact; importing a fact makes no copy of it."""
    program, registry = program_of(SHARED_USE_SRC)
    run = VcgenRun(program, registry)
    contexts = [ob.context
                for task in ("user::first", "user::second")
                for ob in generate_obligations(task, run)]
    lemma = "prelude::seq::lemma_seq_contains_after_push"
    facts = [next(q for q in ctx.facts if q.origin.path == lemma)
             for ctx in contexts]
    assert len(facts) == 2
    assert facts[0] is facts[1]


# -- definitional reach ---------------------------------------------------------


ORDER_SRC = """
spec fn a_fn(x: int) -> int { x + 1 }
spec fn b_fn(x: int) -> int { x + 2 }
proof fn sum(x: int)
    ensures b_fn(x) + a_fn(x) == 2*x + 3
{ }
"""


def definitions(ob) -> list:
    return [qf for qf in ob.context.facts if qf.origin.kind == "definition"]


def test_definitions_come_in_source_order():
    """A context gets the definitional axioms of the spec fns a task calls in
    the order the source calls them, not by name: swapping the two names
    leaves the axioms in the same order by body."""
    swapped = ORDER_SRC.replace("a_fn", "#").replace("b_fn", "a_fn").replace("#", "b_fn")
    bodies = []
    for src, first, second in ((ORDER_SRC, "b_fn", "a_fn"), (swapped, "a_fn", "b_fn")):
        outs, (ob,) = prove_task(src, "sum")
        assert [qf.key for qf in definitions(ob)] == [f"user::{first}", f"user::{second}"]
        assert outs[0].status == "verified"
        bodies.append([render_expr(qf.conclusion.rhs) for qf in definitions(ob)])
    assert bodies[0] == bodies[1] == ["x + 2", "x + 1"]


# Spec fns with bodies reached only through a lemma's requires and ensures
# (a generic lemma's too), those of the facts a block's and a module's
# `broadcast use` name, and another spec fn's body; a lemma's body reaches
# nothing.
FACTS_SRC = """
spec fn in_entry(x: int) -> int { x + 3 }
spec fn pre_entry(x: int) -> int { x - 3 }
broadcast proof fn lemma_in_entry(x: int)
    requires pre_entry(x) < x
    ensures #[trigger] in_entry(x) > x
{ }
"""
REACH_SRC = """
spec fn twice<A>(s: Seq<A>) -> int { s.len() + s.len() }
spec fn inc(x: int) -> int { x + 1 }
spec fn base(x: int) -> int { x }
spec fn dec(x: int) -> int { base(x) - 1 }
spec fn body_only(x: int) -> int { x * 2 }
spec fn in_block(x: int) -> int { x + 4 }
proof fn lemma_twice<A>(s: Seq<A>)
    ensures twice(s) >= 0
{ }
proof fn lemma_inc(x: int)
    requires dec(x) < x
    ensures inc(x) > x
{
    assert(body_only(x) == x * 2);
}
broadcast proof fn lemma_in_block(x: int)
    ensures #[trigger] in_block(x) > x
{ }
broadcast use {facts::lemma_in_entry};
proof fn caller(y: int, s: Seq<int>)
{
    lemma_inc(y);
    lemma_twice(s);
    assert(true) by {
        broadcast use {lemma_in_block};
    }
}
"""


def reach_asts():
    return [parse_module(FACTS_SRC, "facts.tv", module="facts"),
            parse_module(REACH_SRC, "user.tv", module="user")]


def old_definition_keys(task: str, run: VcgenRun) -> set[str]:
    """The reference: the keys of the definitional axioms that vcgen's own
    tree walk gave `task`, frozen as it was. It walked the spec fns called in
    the task's requires, ensures and statements, in the requires and ensures
    of each lemma it calls and of each fact its body's `broadcast use` names,
    and in the facts it imports on entry, then their bodies' callees."""
    builder = _ObligationBuilder(task, run)
    program, decl, config = run.program, builder.inst.decl, run.config
    exprs = list(decl.requires) + list(decl.ensures)
    for s in walk_stmts(decl.body):
        if isinstance(s, (Assert, AssertBy, Let)):
            exprs.append(s.expr)
        elif isinstance(s, LemmaCall):
            exprs.extend(s.args)
            callee = program.instances[s.resolved]
            exprs += callee.decl.requires + callee.decl.ensures
        elif isinstance(s, UseStmt):
            for p in s.paths:
                for inst in builder._instances_for(p):
                    exprs += inst.decl.requires + inst.decl.ensures
    for p in entry_imports(program, run.registry, task, config.ambient,
                           not config.no_default_prelude):
        for inst in builder._instances_for(p):
            qf = run.facts_of(inst)[0]
            exprs += [qf.conclusion] + ([qf.hypothesis] if qf.hypothesis else [])
    queue = deque(sorted({c.resolved for e in exprs for c in walk_exprs(e)
                          if isinstance(c, Call) and c.resolved}))
    seen, keys = set(), set()
    while queue:
        sym = queue.popleft()
        if sym in seen:
            continue
        seen.add(sym)
        inst = program.instances.get(sym)
        if inst is None or inst.kind != "spec":
            continue
        keys.update(qf.key for qf in run.facts_of(inst))
        queue.extend(sorted(set(inst.demands)))
    return keys


def assert_old_definitions(asts, config: RunConfig = RunConfig()) -> int:
    """Every obligation of every task of `asts` has the reference's
    definitional axioms (`old_definition_keys`); returns how many it has."""
    program, registry = resolve_with_prelude(asts)
    run = VcgenRun(program, registry, config)
    total = 0
    for task in program.proof_fns():
        want = old_definition_keys(task, run)
        for ob in generate_obligations(task, run):
            got = [qf.key for qf in definitions(ob)]
            assert len(got) == len(set(got)) and set(got) == want, (task, ob.site)
            total += len(got)
    return total


def test_the_reference_reaches_through_lemmas_and_imports():
    """The reference reaches the spec fns of a lemma's clauses, a generic
    lemma's included, of the facts a block or the module imports, and of
    their bodies, but not those of a lemma's body."""
    program, registry = resolve_with_prelude(reach_asts())
    keys = old_definition_keys("user::caller", VcgenRun(program, registry))
    assert keys == {"user::inc", "user::dec", "user::base", "user::twice<int>",
                    "user::in_block", "facts::in_entry", "facts::pre_entry"}


PROPERTIES = tuple(f"prelude::{m}::group_{m}_properties"
                   for m in ("seq", "set", "map", "multiset"))


@pytest.mark.parametrize("config", [
    RunConfig(), RunConfig(strategy=trig.ALL_TRIGGERS), RunConfig(fuel=2),
    RunConfig(no_default_prelude=True), RunConfig(ambient=PROPERTIES)],
    ids=["conservative", "all-triggers", "fuel-2", "no-default-prelude", "ambient"])
def test_definitions_equal_the_old_walks_on_the_corpus(config):
    corpus = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "corpus", "*.tv")))
    assert assert_old_definitions(load_sources(corpus), config) > 0


@pytest.mark.parametrize("asts", [
    pytest.param(lambda: [], id="prelude-only"),
    pytest.param(lambda: renamed_corpus(0), id="renamed-corpus"),
    pytest.param(reach_asts, id="reach"),
    *(pytest.param(lambda src=src: [parse_module(src, "user.tv", module="user")], id=name)
      for name, src in (("lemma-pre", LEMMA_PRE_SRC), ("lemma-post", LEMMA_POST_SRC),
                        ("nat-arg", NAT_ARG_SRC), ("capture", CAPTURE_SRC),
                        ("assert-by", ASSERT_BY_SRC), ("chain", CHAIN_SRC),
                        ("block-use", SHARED_USE_SRC)))])
def test_definitions_equal_the_old_walks(asts):
    for config in (RunConfig(), RunConfig(fuel=2)):
        assert_old_definitions(asts(), config)
