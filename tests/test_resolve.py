import glob
import itertools
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tunav.driver import RunConfig, load_sources, resolve_with_prelude, verify_program
from tunav import resolve
from tunav.errors import CycleError, ResolveError
from tunav.resolve import (
    LIVENESS_COMBINATIONS,
    ResolveMemo,
    _Resolver,
    _subst_type,
    carrier,
    mono_symbol,
    order_tasks,
    resolve_program,
    unify,
)
from tunav.syntax import parse_module
from tunav.syntax.ast import (
    Assert,
    AssertBy,
    AxiomFn,
    BoolLit,
    Call,
    Exists,
    ProofFn,
    Type,
    walk_exprs,
)

SEQ_STUB = """
sort Seq<A>;
spec fn len<A>(s: Seq<A>) -> int;
spec fn push<A>(s: Seq<A>, v: A) -> Seq<A>;
spec fn contains<A>(s: Seq<A>, x: A) -> bool;

broadcast axiom fn lemma_seq_contains_after_push<A>(s: Seq<A>, v: A, x: A)
    ensures (#[trigger] s.push(v).contains(x)) <==> v == x || s.contains(x);

broadcast group group_seq_properties {
    lemma_seq_contains_after_push,
}
"""


def rp(*sources):
    asts = [parse_module(src, f"m{i}.tv", module=mod)
            for i, (mod, src) in enumerate(sources)]
    return resolve_program(asts)


def test_resolve_push_contains_monomorphizes_lemma():
    user = """
proof fn push_contains(a: Seq<int>) {
    broadcast use {seqs::group_seq_properties};
    let b = a.push(3);
    assert(b.contains(3));
}
"""
    program, registry = rp(("seqs", SEQ_STUB), ("user", user))
    assert registry.groups["seqs::group_seq_properties"] == (
        "seqs::lemma_seq_contains_after_push",)
    # the lemma is demanded at <int> because Seq<int> is live
    syms = program.instances_of["seqs::lemma_seq_contains_after_push"]
    assert any("<int>" in s for s in syms)


def test_non_broadcast_use_is_error():
    src = SEQ_STUB + """
proof fn lemma_x(a: Seq<int>) { }
proof fn user(a: Seq<int>) {
    broadcast use {lemma_x};
}
"""
    with pytest.raises(ResolveError, match="not a broadcastable fact"):
        rp(("m", src))


def test_duplicate_definition_error():
    with pytest.raises(ResolveError, match="duplicate definition"):
        rp(("m", "spec fn f(x: int) -> int;\nspec fn f(y: int) -> int;"))


def test_unresolved_path_error():
    with pytest.raises(ResolveError, match="no matching"):
        rp(("m", "proof fn p(x: int) { assert(g(x) == 0); }"))


def test_arity_mismatch_error():
    src = "spec fn f(x: int) -> int;\nproof fn p(x: int) { assert(f(x, x) == 0); }"
    with pytest.raises(ResolveError, match="no matching"):
        rp(("m", src))


def test_type_mismatch_error():
    src = "proof fn p(x: int, b: bool) { assert(x == b); }"
    with pytest.raises(ResolveError, match="type mismatch"):
        rp(("m", src))


def test_group_cycle_is_error():
    src = """
broadcast group g1 { g2 }
broadcast group g2 { g1 }
"""
    with pytest.raises(ResolveError, match="cyclic broadcast group"):
        rp(("m", src))


def test_nested_group_flattening_idempotent():
    src = SEQ_STUB + """
broadcast group outer { group_seq_properties, lemma_seq_contains_after_push }
"""
    program, registry = rp(("seqs", src))
    # flatten(flatten(G)) == flatten(G): already-flat members stay deduped
    assert registry.groups["seqs::outer"] == ("seqs::lemma_seq_contains_after_push",)


def test_order_lemma_before_user():
    src = """
spec fn f(x: int) -> int;
proof fn user(x: int) {
    broadcast use {lemma_l};
    assert(f(x) == f(x));
}
broadcast proof fn lemma_l(x: int)
    ensures #[trigger] f(x) == f(x)
{ }
"""
    program, registry = rp(("m", src))
    order = order_tasks(program, registry)
    assert order.tasks.index("m::lemma_l") < order.tasks.index("m::user")


def test_order_cycle_error_names_both():
    src = """
spec fn f(x: int) -> int;
broadcast proof fn a(x: int)
    ensures #[trigger] f(x) == f(x)
{
    broadcast use {b};
}
broadcast proof fn b(x: int)
    ensures #[trigger] f(x) == f(x)
{
    broadcast use {a};
}
"""
    program, registry = rp(("m", src))
    with pytest.raises(CycleError) as e:
        order_tasks(program, registry)
    assert e.value.members == ["m::a", "m::b"]


def test_self_import_is_cycle():
    src = """
spec fn f(x: int) -> int;
broadcast proof fn a(x: int)
    ensures #[trigger] f(x) == f(x)
{
    broadcast use {a};
}
"""
    program, registry = rp(("m", src))
    with pytest.raises(CycleError):
        order_tasks(program, registry)


def test_no_broadcast_uses_source_order():
    src = """
proof fn one(x: int) { }
proof fn two(x: int) { }
proof fn three(x: int) { }
"""
    program, registry = rp(("m", src))
    order = order_tasks(program, registry)
    assert order.tasks == ["m::one", "m::two", "m::three"]
    assert order.layers[0] == order.tasks


def test_recursive_proof_fn_rejected():
    src = """
proof fn a(x: int) { b(x); }
proof fn b(x: int) { a(x); }
"""
    program, registry = rp(("m", src))
    with pytest.raises(CycleError) as e:
        order_tasks(program, registry)
    assert e.value.members == ["m::a", "m::b"]
    # a generic lemma that calls itself at another type argument
    src = """
proof fn g<T>(x: T) { g(5); }
"""
    program, registry = rp(("m", src))
    with pytest.raises(CycleError) as e:
        order_tasks(program, registry)
    assert e.value.members == ["m::g"]


@pytest.mark.parametrize("where, members", [("body", ["m::a", "m::b"]),
                                            ("module", ["m::a", "user::b"])],
                         ids=["body", "module"])
def test_cycle_through_a_lemma_call_and_an_import(where, members):
    """`a` relies on `b` by calling it and `b` on `a` by importing it, in
    `b`'s body or by `b`'s module (another module, as `a`'s own would import
    `a` into `a`), so each would be proven from itself; `wrong` would then
    verify a false fact about an uninterpreted `g`."""
    lemma = """
spec fn g(y: int) -> int;
broadcast proof fn a(y: int)
    ensures #[trigger] g(y) == 0
{
    b(y);
}
"""
    user = """
proof fn b(y: int)
    ensures g(y) == 0
{
    BODY
}
proof fn wrong(y: int)
    ensures g(y) == 0
{
    broadcast use {a};
}
"""
    use = "broadcast use {a};"
    if where == "body":
        sources = [("m", lemma + user.replace("BODY", use))]
    else:
        sources = [("m", lemma), ("user", use + user.replace("BODY", ""))]
    program, registry = rp(*sources)
    with pytest.raises(CycleError) as e:
        order_tasks(program, registry)
    assert e.value.members == members


def test_called_lemma_is_verified_first():
    src = """
proof fn caller(x: int) { later(x); }
proof fn later(x: int) ensures x == x { }
proof fn axiom_caller(x: int) { trusted(x); }
axiom fn trusted(x: int) ensures x == x;
"""
    program, registry = rp(("m", src))
    order = order_tasks(program, registry)
    assert order.layers == [["m::later", "m::axiom_caller"], ["m::caller"]]
    assert order.deps == {"m::caller": {"m::later"}, "m::later": set(),
                          "m::axiom_caller": set()}


@pytest.mark.parametrize("kind", ["spec", "proof"])
def test_polymorphic_recursion_rejected(kind):
    """A generic fn that calls itself at a type built from its own type
    argument would demand ever deeper instances."""
    body = {"spec": """
spec fn f<T>(x: T) -> int { f(wrap(x)) }
proof fn p(x: int) { assert(f(x) == f(x)); }
""", "proof": """
proof fn f<T>(x: T) { f(wrap(x)); }
"""}[kind]
    src = "sort Seq<A>;\nspec fn wrap<A>(x: A) -> Seq<A>;\n" + body
    with pytest.raises(ResolveError, match="polymorphic recursion: 'm::f' is "
                       "demanded at types nested deeper than 32"):
        rp(("m", src))


def test_group_import_equals_member_imports_for_ordering():
    src = SEQ_STUB + """
broadcast proof fn lemma_push_len<A>(s: Seq<A>, v: A)
    ensures #[trigger] s.push(v).len() == s.push(v).len()
{
}
broadcast group group_push {
    group_seq_properties,
    lemma_push_len,
}
proof fn via_group(a: Seq<int>) {
    broadcast use {group_push};
}
proof fn via_member(a: Seq<int>) {
    broadcast use {lemma_push_len};
}
"""
    program, registry = rp(("seqs", src))
    deps = order_tasks(program, registry).deps
    assert deps["seqs::via_group"] == deps["seqs::via_member"] == {"seqs::lemma_push_len"}


@pytest.mark.parametrize("ambient", [(), ("prelude::seq::group_seq_properties",)])
def test_default_group_adds_no_order_edge(monkeypatch, ambient):
    """Over the corpus and the prelude, no default-group member is a proof
    fn, so the task order is that of a run that expands the group too."""
    program, registry = resolve_with_prelude(load_sources(CORPUS))
    members = registry.expand(registry.default_group)
    assert members and not set(members) & set(program.proof_fns())
    order = order_tasks(program, registry, ambient)
    task_imports = resolve.task_imports
    monkeypatch.setattr(resolve, "task_imports",
                        lambda program, registry, task, ambient, default:
                        task_imports(program, registry, task, ambient, True))
    expanded = order_tasks(program, registry, ambient)
    assert (order.tasks, order.layers, order.deps) == (
        expanded.tasks, expanded.layers, expanded.deps)


def test_overload_resolution_by_receiver_type():
    src = """
sort Seq<A>;
sort Set<A>;
spec fn contains<A>(s: Seq<A>, x: A) -> bool;
spec fn contains<A>(s: Set<A>, x: A) -> bool;
"""
    with pytest.raises(ResolveError, match="duplicate definition"):
        rp(("m", src))
    two_mods = [("seqs", "sort Seq<A>;\nspec fn contains<A>(s: Seq<A>, x: A) -> bool;"),
                ("sets", "sort Set<A>;\nspec fn contains<A>(s: Set<A>, x: A) -> bool;"),
                ("u", "proof fn p(a: seqs::Seq<int>) { assert(a.contains(3)); }")]
    # qualified sort names are not part of the grammar; use short names
    two_mods[2] = ("u", "proof fn p(a: Seq<int>) { assert(contains(a, 3)); }")
    program, _ = rp(*two_mods)
    fn = program.instances["u::p"].decl
    assert fn.body[0].expr.resolved == "seqs::contains<int>"


def test_duplicate_let_name_rejected():
    src = "proof fn p(x: int) { let y = x; let y = x; }"
    with pytest.raises(ResolveError, match="duplicate let"):
        rp(("m", src))


def test_names_are_free_again_after_their_scope():
    """Sibling quantifiers may share a binder name, and a let may reuse a
    name after the `assert ... by` block that bound it; a binder may not
    reuse a name still in scope."""
    src = """
proof fn p(x: int)
    ensures (forall|i: int| i == i) && (forall|i: int| i + 0 == i)
{
    assert(x == x) by { let y = x; }
    let y = x + 1;
    assert(y == x + 1);
}
"""
    rp(("m", src))
    with pytest.raises(ResolveError, match="duplicate binder name 'x'"):
        rp(("m", "proof fn q(x: int) ensures forall|x: int| x == x { }"))


def test_misplaced_trigger_mark_rejected():
    src = "spec fn f(x: int) -> int;\nproof fn p(x: int) { assert(#[trigger] f(x) == f(x)); }"
    with pytest.raises(ResolveError, match="misplaced"):
        rp(("m", src))


MARK_DECLS = """
spec fn f(x: int) -> int;
proof fn l(x: int) { }
"""


@pytest.mark.parametrize("decl, misplaced", [
    ("proof fn p(x: int) ensures #[trigger] f(x) == f(x) { }", True),
    ("axiom fn p(x: int) requires #[trigger] f(x) > 0;", True),
    ("broadcast proof fn p(x: int) ensures #[trigger] f(x) == f(x) "
     "{ assert(#[trigger] f(x) == f(x)); }", True),
    ("proof fn p(x: int) { let y = #[trigger] f(x); }", True),
    ("proof fn p(x: int) { l(#[trigger] f(x)); }", True),
    ("proof fn p(x: int) { assert(x == x) by { assert(#[trigger] f(x) == f(x)); } }",
     True),
    ("broadcast axiom fn p(x: int) ensures #[trigger] f(x) == f(x);", False),
    ("broadcast proof fn p(x: int) ensures #[trigger] f(x) == f(x) { }", False),
    ("proof fn p() ensures forall|x: int| #[trigger] f(x) == f(x) { }", False),
    ("proof fn p() { assert(forall|x: int| f(x) == #[trigger] f(x)) by { } }", False),
    ("spec fn g(x: int) -> int { #[trigger] f(x) }", False),
], ids=["ensures", "axiom-requires", "broadcast-body", "let", "lemma-arg",
        "assert-by-block", "broadcast-axiom", "broadcast-proof", "quantified",
        "quantified-assert-by", "spec-body"])
def test_trigger_mark_placement(decl, misplaced):
    """A `#[trigger]` must sit under a quantifier, except in a spec fn's body
    and a broadcast fn's clauses, whose parameters become quantified binders."""
    if misplaced:
        with pytest.raises(ResolveError, match="misplaced #\\[trigger\\]"):
            rp(("m", MARK_DECLS + decl))
    else:
        rp(("m", MARK_DECLS + decl))


def test_a_module_name_may_contain_the_path_separator():
    """A declaration's module is its path up to the last `::`, never the
    first: `m::x::f` is in module `m::x` and sees its `broadcast use`, while
    proof fn `m::x` is in module `m`, which imports nothing."""
    m = parse_module("""
spec fn g(i: int) -> bool;
broadcast axiom fn ax(i: int) ensures #[trigger] g(i);
proof fn x(k: int) ensures g(k) { }
""", "m.tv", module="m")
    mx = parse_module("""
broadcast use {m::ax};
proof fn f(k: int) ensures m::g(k) { }
""", "m_x.tv", module="m::x")
    run = verify_program([m, mx], RunConfig())
    assert {t: run.results[t].status for t in run.user_tasks} == {
        "m::x": "failed", "m::x::f": "verified"}


def test_generic_lemma_gets_skolem_verification_instance():
    src = SEQ_STUB.replace("broadcast axiom fn lemma_seq_contains_after_push",
                           "broadcast proof fn lemma_seq_contains_after_push")
    src = src.replace(
        "ensures (#[trigger] s.push(v).contains(x)) <==> v == x || s.contains(x);",
        "ensures (#[trigger] s.push(v).contains(x)) <==> v == x || s.contains(x)\n{ }")
    program, registry = rp(("seqs", src))
    inst = program.verify_instance("seqs::lemma_seq_contains_after_push")
    assert inst.owners == {"seqs::lemma_seq_contains_after_push"}


# -- unify against carriers ----------------------------------------------------

TVARS = ("X", "Y")
LEAVES = [Type("int"), Type("nat"), Type("bool")]
# a fixed seed and no example database: the same examples on every run
ORACLE = settings(max_examples=300, deadline=None, derandomize=True,
                  database=None, suppress_health_check=[HealthCheck.too_slow])


def _types(leaves):
    return st.recursive(st.sampled_from(leaves), lambda args: st.builds(
        Type, st.sampled_from(["S", "T"]), st.lists(args, max_size=2).map(tuple)),
        max_leaves=6)


GROUND = _types(LEAVES)


@st.composite
def _near(draw, t: Type, tvars):
    """A type like `t`: some subtrees replaced by type variables (from
    `tvars`) or by unrelated types, some names swapped int <-> nat."""
    pick = draw(st.integers(0, 5 if tvars else 4))
    if pick == 0:
        return draw(_types(LEAVES + [Type(v) for v in tvars]))
    if pick == 5:
        return Type(draw(st.sampled_from(tvars)))
    name = t.name
    if pick == 1:
        name = {"int": "nat", "nat": "int"}.get(name, name)
    return Type(name, tuple(draw(_near(a, tvars)) for a in t.args))


@st.composite
def _pairs(draw, tvars):
    t = draw(GROUND)
    return draw(_near(t, tvars)), t


@ORACLE
@given(_pairs(TVARS))
def test_unify_success_agrees_with_carriers(pair):
    pattern, ground = pair
    sub = {}
    if unify(pattern, ground, sub, TVARS):
        assert carrier(_subst_type(pattern, sub)) == carrier(ground)


@ORACLE
@given(_pairs(()))
def test_unify_without_variables_is_carrier_equality(pair):
    pattern, ground = pair
    assert unify(pattern, ground, {}, TVARS) == (carrier(pattern) == carrier(ground))


# -- liveness: a frozen copy of the naive fixpoint, and its caps ---------------


def reference_demand_by_liveness(self):
    """Liveness as computed when every round matched every live sort against
    every parameter of every generic broadcast fact. Only the demand is
    adapted to the symbol queue, and it returns the facts that demanded."""
    live = self.live
    added = []
    for path, decl in self.symbols.items():
        if not isinstance(decl, (ProofFn, AxiomFn)) or not decl.broadcast:
            continue
        if not decl.type_params:
            continue
        for targs in reference_liveness_assignments(self, path, decl, live):
            sym = mono_symbol(path, targs)
            if sym not in self.instances:
                self.queue.append(self.memo.symbol(path, targs))
                added.append(path)
    return added


def reference_liveness_assignments(self, path, decl, live):
    tps = list(decl.type_params)
    candidates = {tp: set() for tp in tps}
    anchored = set()
    for p in self.params[path]:
        ty = p.ty
        if not ty.args:
            continue
        for s in live:
            sub = {}
            if unify(ty, s, sub, tps):
                for tp, bound in sub.items():
                    candidates[tp].add(bound)
                    anchored.add(tp)
    if set(tps) - anchored:
        return []  # unanchored type variable: no liveness-driven instances
    pools = [sorted(candidates[tp], key=lambda t: t.render()) for tp in tps]
    return [tuple(combo) for combo in itertools.islice(
        itertools.product(*pools), 200)]


CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "corpus", "*.tv")))

WRAP = """
spec fn wrap<A>(s: Seq<A>) -> Seq<Seq<A>>;
broadcast axiom fn axiom_wrap_len<A>(s: Seq<A>)
    ensures #[trigger] wrap(s).len() == s.len();
proof fn uses_wrap(s: Seq<int>)
    ensures wrap(s).len() == s.len()
{
    broadcast use {axiom_wrap_len};
}
"""

# 15 element sorts bind each type param of `axiom_both` to 15 sorts or more:
# more combinations than liveness takes
MANY = "".join(f"sort S{i};\n" for i in range(15)) + """
spec fn both<A, B>(a: Seq<A>, b: Seq<B>) -> bool;
broadcast axiom fn axiom_both<A, B>(a: Seq<A>, b: Seq<B>)
    ensures #[trigger] both(a, b) == both(a, b);
proof fn many(""" + ", ".join(f"s{i}: Seq<S{i}>" for i in range(15)) + ") { }\n"

# K is anchored by both parameters, V by the map only
MAP_KEYS = """
spec fn keys_in<K, V>(m: Map<K, V>, s: Seq<K>) -> bool;
broadcast axiom fn axiom_keys_in<K, V>(m: Map<K, V>, s: Seq<K>)
    ensures #[trigger] keys_in(m, s) == keys_in(m, s);
proof fn maps(m: Map<int, bool>, n: Map<bool, Seq<int>>, s: Seq<int>, t: Seq<nat>)
    ensures m.insert(1, true).index(1) == true
{
    assert(s.len() == s.len());
}
"""


def with_prelude(src, module="m"):
    return resolve_with_prelude([parse_module(src, f"{module}.tv", module=module)])[0]


def liveness_digest(program):
    return list(program.instances), program.instances_of


@pytest.mark.parametrize("src", [WRAP, MANY, MAP_KEYS],
                         ids=["rounds-cap", "combinations-cap", "two-anchors"])
def test_semi_naive_liveness_equals_the_naive_fixpoint(monkeypatch, src):
    asts = [parse_module(src, "m.tv", module="m")]
    memo = ResolveMemo()
    # the second resolve takes every match and instance from the memo
    semi_naive = [liveness_digest(resolve_with_prelude(asts, memo)[0])
                  for _ in range(2)]
    monkeypatch.setattr(_Resolver, "demand_by_liveness", reference_demand_by_liveness)
    naive = liveness_digest(resolve_with_prelude(asts)[0])
    assert semi_naive == [naive, naive]


@pytest.mark.parametrize("ambient", [(), ("prelude::seq::group_seq_properties",)],
                         ids=["no-ambient", "seq-properties"])
def test_semi_naive_liveness_equals_the_naive_fixpoint_on_the_corpus(monkeypatch,
                                                                    ambient):
    config = RunConfig(ambient=ambient)

    def digest(run):
        return (liveness_digest(run.program), run.order.layers,
                {t: r.status for t, r in run.results.items()})

    semi_naive = digest(verify_program(load_sources(CORPUS), config))
    monkeypatch.setattr(_Resolver, "demand_by_liveness", reference_demand_by_liveness)
    assert digest(verify_program(load_sources(CORPUS), config)) == semi_naive


def test_liveness_caps_are_named_on_the_program():
    program = with_prelude(WRAP)
    # the instance set the round cap has always allowed
    assert len(program.instances) == 620
    assert len(program.instances_of["m::axiom_wrap_len"]) == 31
    assert list(program.liveness_caps) == ["rounds"]
    assert "m::axiom_wrap_len" in program.liveness_caps["rounds"]

    program = with_prelude(MANY)
    assert len(program.instances_of["m::axiom_both"]) == LIVENESS_COMBINATIONS
    assert program.liveness_caps["combinations"] == ["m::axiom_both"]

    corpus, _ = resolve_with_prelude(load_sources(CORPUS))
    assert corpus.liveness_caps == {}


def test_a_spec_instance_demands_the_callees_of_its_body():
    """vcgen reads a spec fn's callees off `MonoFn.demands`: for every spec
    instance of the corpus and the prelude, its demanded symbols are the
    symbols its body calls."""
    program, _ = resolve_with_prelude(load_sources(CORPUS))
    specs = [fn for fn in program.instances.values() if fn.kind == "spec"]
    assert any(fn.decl.body is not None for fn in specs)
    for fn in specs:
        body = fn.decl.body
        calls = set() if body is None else {
            c.resolved for c in walk_exprs(body) if isinstance(c, Call) and c.resolved}
        assert sorted(set(fn.demands)) == sorted(calls), fn.symbol


GENERIC_WITNESS = """
proof fn pushed_at<T>(s: Seq<T>, x: T)
    ensures exists|i: int| 0 <= i && #[trigger] s.push(x).index(i) == x
{
    assert(s.push(x).index(s.len()) == x && true) by {
        assert(s.push(x).len() == s.len() + 1);
    }
}
"""


def test_generic_instance_copies_exists_literals_and_assert_by():
    """The skolem instance of a generic proof fn is a copy of its checked
    tree at the skolem sort: an `exists`, a Boolean literal and an `assert
    ... by` block are copied, with the calls inside them at that sort, and
    the copy verifies."""
    asts = [parse_module(GENERIC_WITNESS, "user.tv", module="user")]
    program, _ = resolve_with_prelude(asts)
    inst = program.verify_instance("user::pushed_at")
    skolem = resolve.skolem("user::pushed_at", "T")
    assert inst.targs == (skolem,)
    [ensures] = inst.decl.ensures
    assert isinstance(ensures, Exists) and ensures.binders[0].ty == Type("int")
    [assert_by] = inst.decl.body
    assert isinstance(assert_by, AssertBy)
    [inner] = assert_by.body
    assert isinstance(inner, Assert)
    lit = assert_by.expr.rhs
    assert isinstance(lit, BoolLit) and lit.value is True and lit.ty == Type("bool")
    source = asts[0].declarations[0]
    copied = [ensures, lit, assert_by.expr, inner.expr]
    originals = [source.ensures[0], source.body[0].expr.rhs, source.body[0].expr,
                 source.body[0].body[0].expr]
    assert all(c is not o for c, o in zip(copied, originals))
    calls = {c.resolved for e in copied for c in walk_exprs(e) if isinstance(c, Call)}
    assert f"prelude::seq::index<{skolem.render()}>" in calls
    assert all(skolem.render() in sym for sym in calls)
    assert verify_program(asts, RunConfig()).results["user::pushed_at"].passed
