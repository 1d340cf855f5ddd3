import dataclasses
import glob
import random

import pytest

from tunav.driver import load_sources
from tunav.errors import ParseError
from tunav.prelude import load_prelude
from tunav.syntax import (
    Assert,
    AssertBy,
    BinOp,
    BroadcastGroup,
    Call,
    Forall,
    Let,
    ProofFn,
    SourceSpan,
    SpecFn,
    parse_module,
    render_module,
)
from tunav.syntax.ast import walk_exprs, walk_stmts
from tunav.minimize import prune_asts

PUSH_CONTAINS = """
proof fn push_contains(a: Seq<int>) {
    let b = a.push(3);
    assert(b.contains(3));
}
"""


def test_parse_push_contains():
    ast = parse_module(PUSH_CONTAINS, "t.tv")
    assert len(ast.declarations) == 1
    fn = ast.declarations[0]
    assert isinstance(fn, ProofFn)
    assert fn.name == "push_contains"
    assert not fn.broadcast
    assert isinstance(fn.body[0], Let)
    assert isinstance(fn.body[1], Assert)


def test_parse_empty_file():
    ast = parse_module("", "t.tv")
    assert ast.declarations == []
    assert parse_module("// just a comment\n", "t.tv").declarations == []


def test_parse_broadcast_group():
    ast = parse_module("broadcast group g { m::a, m::b }", "t.tv")
    g = ast.declarations[0]
    assert isinstance(g, BroadcastGroup)
    assert g.members == ["m::a", "m::b"]


def test_method_sugar_desugars_to_call():
    a = parse_module("spec fn f(a: Seq<int>) -> bool { a.push(3).contains(3) }", "t.tv")
    b = parse_module("spec fn f(a: Seq<int>) -> bool { contains(push(a, 3), 3) }", "t.tv")
    assert a.declarations[0] == b.declarations[0]


def test_chained_comparison_desugars():
    a = parse_module("spec fn f(i: int, n: int) -> bool { 0 <= i < n }", "t.tv")
    b = parse_module("spec fn f(i: int, n: int) -> bool { 0 <= i && i < n }", "t.tv")
    assert a.declarations[0] == b.declarations[0]


def test_parse_quantifier_with_trigger_mark():
    src = ("proof fn t(s: Seq<int>)\n"
           "    requires forall|i: int| 0 <= i < s.len() ==> #[trigger] is_even(s.index(i))\n"
           "{\n}\n")
    ast = parse_module(src, "t.tv")
    fn = ast.declarations[0]
    q = fn.requires[0]
    assert isinstance(q, Forall)
    body = q.body
    assert isinstance(body, BinOp) and body.op == "==>"
    assert isinstance(body.rhs, Call) and body.rhs.trigger_mark


def test_parse_all_triggers_attr():
    src = "spec fn f(s: Seq<int>) -> bool { forall|i: int| #![all_triggers] s.index(i) == 0 }"
    q = parse_module(src, "t.tv").declarations[0].body
    assert isinstance(q, Forall) and q.all_triggers


def test_parse_broadcast_axiom_fn():
    src = ("broadcast axiom fn axiom_seq_add_len<A>(s1: Seq<A>, s2: Seq<A>)\n"
           "    ensures #[trigger] s1.add(s2).len() == s1.len() + s2.len();\n")
    d = parse_module(src, "t.tv").declarations[0]
    assert d.broadcast and d.type_params == ["A"]
    assert d.ensures[0].lhs.trigger_mark


def test_parse_errors_carry_span():
    with pytest.raises(ParseError) as e:
        parse_module("proof fn f( {", "t.tv")
    assert "t.tv:1:" in str(e.value)
    with pytest.raises(ParseError):
        parse_module("spec fn f() -> int { 1 + }", "t.tv")


@pytest.mark.parametrize("src,message,col", [
    pytest.param("²", "unexpected character '²'", 22, id="superscript-two"),
    pytest.param("1٣", "unexpected character '٣'", 23, id="arabic-indic-three"),
    pytest.param("#[trig]", "unknown attribute", 22, id="unknown-attribute"),
])
def test_lexer_rejects_characters_outside_the_alphabet(src, message, col):
    """Integer literals are ASCII digits only; other numeric characters
    start no token."""
    with pytest.raises(ParseError) as e:
        parse_module("spec fn f() -> int { " + src + " }", "t.tv")
    assert f"t.tv:1:{col}: {message}" in str(e.value)


def test_identifiers_are_letter_or_underscore_then_word_characters():
    d = parse_module("spec fn fé(_x2: int, a²: int) -> int { _x2 + a² }", "t.tv").declarations[0]
    assert d.name == "fé" and [p.name for p in d.params] == ["_x2", "a²"]


@pytest.mark.parametrize("text,want", [
    # a chain: both legs and the conjunction start at the chain's first token
    ("0 <= i < n", [("0 <= i < n", "&&"), ("0 <= i", "<="), ("0 <= i < n", "<")]),
    ("a ==> b ==> c", [("a ==> b ==> c", "==>"), ("b ==> c", "==>")]),
    ("(a) + b", [("(a) + b", "+")]),
    ("a - -1", [("a - -1", "-")]),
    ("#[trigger] f(x) + 1 < 2",
     [("#[trigger] f(x) + 1 < 2", "<"), ("#[trigger] f(x) + 1", "+")]),
    ("!a && b", [("!a && b", "&&")]),
])
def test_binop_spans(text, want):
    """The minimizer keys on spans: a BinOp spans from the first token of its
    leftmost operand, a leading `(` included, to the end of its rhs."""
    src = f"spec fn f(a: bool, b: bool, c: bool, i: int, n: int, x: int) -> bool {{ {text} }}"
    body = parse_module(src, "t.tv").declarations[0].body
    assert [(src[e.span.start:e.span.end], e.op)
            for e in walk_exprs(body) if isinstance(e, BinOp)] == want


def test_assert_spans_cover_assert_keyword():
    src = PUSH_CONTAINS
    ast = parse_module(src, "t.tv")
    fn = ast.declarations[0]
    for s in walk_stmts(fn.body):
        if isinstance(s, (Assert, AssertBy)):
            assert src[s.span.start:s.span.end].startswith("assert")


CORPUS_SNIPPETS = [
    PUSH_CONTAINS,
    "spec fn is_even(i: int) -> bool { i % 2 == 0 }",
    "spec fn is_prime(n: nat) -> bool { forall|k: nat| 2 <= k < n ==> !divides(n, k) }",
    ("proof fn even_gt_2_isnt_prime(i: nat)\n"
     "    requires i > 2 && is_even(i)\n"
     "    ensures !is_prime(i)\n"
     "{\n}\n"),
    ("proof fn with_by(a: Seq<int>)\n{\n"
     "    assert(a.len() >= 0) by {\n"
     "        broadcast use {prelude::seq::group_seq_properties};\n"
     "        assert(true);\n"
     "    }\n"
     "}\n"),
    "broadcast use {m::a, m::b};",
    "sort Key;",
    "sort Pair<A, B>;",
    "const limit: int;",
    "spec fn neg() -> int { -3 + 2 * -1 }",
    "spec fn prec(a: bool, b: bool, c: bool) -> bool { a && b || !c ==> (a <==> b) }",
    ("proof fn lemma_call_stmt(x: int)\n{\n    helper(x, 1 + 2);\n}\n"),
    # a comparison operand of a comparison keeps its parentheses, so it is
    # not re-read as the chain `a <= b && b == c`
    "spec fn le_is(a: int, b: int, c: bool) -> bool { (a <= b) == c }",
]


@pytest.mark.parametrize("src", CORPUS_SNIPPETS)
def test_round_trip(src):
    first = parse_module(src, "t.tv")
    rendered = render_module(first)
    second = parse_module(rendered, "t.tv")
    assert first.declarations == second.declarations
    # render is a fixpoint
    assert render_module(second) == rendered


def test_pruned_module_renders_without_asserts():
    src = ("proof fn two(a: Seq<int>)\n{\n"
           "    assert(1 + 1 == 2);\n"
           "    assert(2 + 2 == 4);\n"
           "}\n")
    ast = parse_module(src, "t.tv")
    fn = ast.declarations[0]
    [pruned] = prune_asts([ast], {s.span.key() for s in fn.body})
    out = render_module(pruned)
    assert "assert" not in out
    assert parse_module(out, "t.tv").declarations[0].body == []


def test_pruned_module_renders_without_whole_by_block():
    src = ("proof fn one(a: Seq<int>)\n{\n"
           "    assert(true) by {\n"
           "        assert(1 == 1);\n"
           "    }\n"
           "    assert(false ==> true);\n"
           "}\n")
    ast = parse_module(src, "t.tv")
    fn = ast.declarations[0]
    by = fn.body[0]
    assert isinstance(by, AssertBy)
    [pruned] = prune_asts([ast], {by.span.key()})
    out = render_module(pruned)
    assert "by" not in out and "1 == 1" not in out
    assert "false ==> true" in out


def test_prune_asts_empty_set_returns_module_unchanged():
    ast = parse_module(PUSH_CONTAINS, "t.tv")
    [pruned] = prune_asts([ast], set())
    assert pruned is ast
    assert parse_module(render_module(pruned), "t.tv").declarations == ast.declarations


def test_prune_asts_keeps_non_assert_statements():
    # sites are named by assert span keys; any other statement's key removes
    # nothing, so the module comes back as the same object
    ast = parse_module(PUSH_CONTAINS, "t.tv")
    let_span = ast.declarations[0].body[0].span
    [pruned] = prune_asts([ast], {let_span.key()})
    assert pruned is ast


def test_spec_fn_bodiless():
    d = parse_module("spec fn len<A>(s: Seq<A>) -> int;", "t.tv").declarations[0]
    assert isinstance(d, SpecFn) and d.body is None and d.ret.name == "int"


def test_round_trip_fuzz():
    # randomized expression trees over the full operator set, including
    # trigger marks, quantifier attrs and negative literals
    import random

    from tunav.syntax.ast import (
        Binder,
        BinOp,
        BoolLit,
        Exists,
        IntLit,
        Not,
        Param,
        ProgramAst,
        SourceSpan,
        Type,
        Var,
    )

    SPAN = SourceSpan("f.tv", 0, 1, 1, 1)
    rng = random.Random(17)

    def expr(depth, bound, want_bool):
        r = rng.random()
        if depth > 4 or r < 0.18:
            if want_bool:
                return BoolLit(SPAN, value=rng.random() < 0.5)
            if bound and rng.random() < 0.5:
                return Var(SPAN, name=rng.choice(bound))
            return IntLit(SPAN, value=rng.randint(-9, 9))
        if want_bool:
            c = rng.random()
            if c < 0.35:
                return BinOp(SPAN, op=rng.choice(["&&", "||", "==>", "<==>"]),
                             lhs=expr(depth + 1, bound, True),
                             rhs=expr(depth + 1, bound, True))
            if c < 0.5:
                return Not(SPAN, arg=expr(depth + 1, bound, True))
            if c < 0.7:
                return BinOp(SPAN, op=rng.choice(["==", "!=", "<", "<=", ">", ">="]),
                             lhs=expr(depth + 1, bound, False),
                             rhs=expr(depth + 1, bound, False))
            if c < 0.78:
                # bool operands may themselves be comparisons
                return BinOp(SPAN, op=rng.choice(["==", "!="]),
                             lhs=expr(depth + 1, bound, True),
                             rhs=expr(depth + 1, bound, True))
            if c < 0.88:
                name = f"q{rng.randint(0, 2)}"
                body = expr(depth + 1, bound + [name], True)
                if rng.random() < 0.5:
                    return Forall(SPAN, binders=[Binder(name, Type("int"))],
                                  body=body, all_triggers=rng.random() < 0.3)
                return Exists(SPAN, binders=[Binder(name, Type("nat"))], body=body)
            e = Call(SPAN, name="p", args=[expr(depth + 1, bound, False)])
            e.trigger_mark = rng.random() < 0.2
            return e
        if rng.random() < 0.5:
            return BinOp(SPAN, op=rng.choice(["+", "-", "*", "%"]),
                         lhs=expr(depth + 1, bound, False),
                         rhs=expr(depth + 1, bound, False))
        e = Call(SPAN, name=rng.choice(["f", "g"]),
                 args=[expr(depth + 1, bound, False)])
        e.trigger_mark = rng.random() < 0.15
        return e

    for _ in range(300):
        fn = ProofFn(SPAN, "t",
                     params=[Param("a", Type("int")), Param("b", Type("int"))],
                     requires=[expr(0, ["a", "b"], True)], body=[])
        mod = ProgramAst("f.tv", "m", [fn])
        text = render_module(mod)
        back = parse_module(text, "f.tv")
        assert back.declarations == mod.declarations, text


def test_type_hash_is_kept_and_not_pickled():
    """A type's hash is computed once and kept; a pickled copy computes its
    own, since str hashes differ between processes."""
    import pickle

    from tunav.syntax import Type
    t = Type("Map", (Type("int"), Type("Seq", (Type("nat"),))))
    assert hash(t) == hash(Type("Map", (Type("int"), Type("Seq", (Type("nat"),)))))
    assert t.__dict__["_hash"] == hash(t)
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and "_hash" not in copy.__dict__
    assert {t: 1}[copy] == 1


def test_source_span_is_an_immutable_value():
    import pickle

    span = SourceSpan("f.tv", 3, 5, 1, 4)
    assert span == SourceSpan("f.tv", 3, 5, 1, 4) and span.key() == ("f.tv", 3, 5)
    assert pickle.loads(pickle.dumps(span)) == span
    assert repr(span) == "SourceSpan(file='f.tv', start=3, end=5, line=1, col=4)"
    with pytest.raises(AttributeError):
        span.start = 4
    with pytest.raises(ValueError, match="invalid span"):
        SourceSpan("f.tv", 5, 3, 1, 1)


def _spans(node):
    """Every span in the tree of `node`."""
    if isinstance(node, SourceSpan):
        yield node
    elif isinstance(node, (list, tuple)):
        for child in node:
            yield from _spans(child)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _spans(getattr(node, f.name))


def test_parsed_spans_are_well_ordered():
    """The parser builds its spans without `SourceSpan`'s start <= end
    check, so every span of every tree it makes must pass that check: those
    of the corpus, the prelude, the benchmark's synth projects, and the
    seeded random sources of `test_lexer` that parse."""
    from test_lexer import random_source
    from test_prelude_store import bench_inputs

    trees = load_sources(sorted(glob.glob("tests/corpus/*.tv"))) + load_prelude()
    for seed in (1, 2):
        trees += [parse_module(s.text, s.path, module=s.module)
                  for s in bench_inputs().synth_project(seed).sources]
    rng = random.Random(2024)
    parsed = 0
    for _ in range(3000):
        try:
            trees.append(parse_module(random_source(rng), "t.tv"))
            parsed += 1
        except ParseError:
            pass
    assert parsed > 100
    count = 0
    for tree in trees:
        for span in _spans(tree):
            assert type(span) is SourceSpan and span.file == tree.path
            assert span.start <= span.end, span
            count += 1
    assert count > 15000
