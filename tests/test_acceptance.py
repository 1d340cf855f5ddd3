"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures. Run with `pytest tests/test_acceptance.py -v -s`."""

import dataclasses
import glob
import json
import os
import random
import time
from pathlib import Path

import pytest

from tunav.cli import main as cli_main
from tunav.driver import (
    RunConfig,
    load_sources,
    render_report,
    report_usage,
    verify_program,
)
from tunav.engine import Limits, Origin, eval_finite, make_fact, prove
from tunav.engine.prover import compile_formula
from tunav.errors import CycleError
from tunav.metrics import compare_metrics, records_of_run
from tunav.minimize import enumerate_assert_sites, minimize
from tunav.resolve import order_tasks
from tunav.syntax import parse_module, render_module
from tunav.syntax.ast import (
    Assert,
    AssertBy,
    BinOp,
    Call,
    Forall,
    IntLit,
    LemmaCall,
    Let,
    SourceSpan,
    Type,
    Var,
    walk_exprs,
)
from tunav.vcgen import VcgenRun, generate_obligations, prove_obligation
from tunav import triggers as trig

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "corpus", "*.tv")))
LABELS = json.loads(Path(os.path.dirname(__file__), "corpus",
                         "labels.json").read_text())
AMBIENT = ("prelude::seq::group_seq_properties",
           "prelude::set::group_set_properties",
           "prelude::map::group_map_properties",
           "prelude::multiset::group_multiset_properties")


def ok(n, msg):
    print(f"\nACCEPTANCE {n}: PASS - {msg}")


def run_source(src, config=None, module="user"):
    ast = parse_module(src, f"{module}.tv", module=module)
    return verify_program([ast], config or RunConfig())


def site_ids(sites):
    per_fn = {}
    out = []
    for s in sites:
        n = per_fn.get(s.function, 0)
        per_fn[s.function] = n + 1
        out.append((s.function, n))
    return out


def strip_manual_triggers(asts):
    def strip_expr(e):
        for sub in walk_exprs(e):
            sub.trigger_mark = False
            if isinstance(sub, Forall):
                sub.all_triggers = False

    def strip_stmts(stmts):
        for s in stmts:
            if isinstance(s, (Assert, AssertBy)):
                strip_expr(s.expr)
            if isinstance(s, AssertBy):
                strip_stmts(s.body)
            if isinstance(s, Let):
                strip_expr(s.expr)
            if isinstance(s, LemmaCall):
                for a in s.args:
                    strip_expr(a)

    for ast in asts:
        for d in ast.declarations:
            for e in getattr(d, "requires", []) + getattr(d, "ensures", []):
                strip_expr(e)
            body = getattr(d, "body", None)
            if isinstance(body, list):
                strip_stmts(body)
            elif body is not None:
                strip_expr(body)
    return asts


# ---------------------------------------------------------------------------


PUSH_CONTAINS_BARE = """
proof fn push_contains(a: Seq<int>) {
    let b = a.push(3);
    assert(b.contains(3));
}
"""


def test_criterion_01_golden_push_contains_walkthrough():
    t0 = time.monotonic()
    bare = run_source(PUSH_CONTAINS_BARE)
    assert bare.results["user::push_contains"].status == "failed"

    group = run_source(PUSH_CONTAINS_BARE.replace(
        "{\n", "{\n    broadcast use {group_seq_properties};\n", 1))
    r = group.results["user::push_contains"]
    assert r.passed
    assert report_usage(r) == (
        "checking this function used these broadcasted lemmas "
        "and broadcast groups:\n"
        "        - (group) prelude::seq::group_seq_properties,\n"
        "        - prelude::seq::lemma_seq_contains_after_push")

    single = run_source(PUSH_CONTAINS_BARE.replace(
        "{\n", "{\n    broadcast use {lemma_seq_contains_after_push};\n", 1))
    assert single.results["user::push_contains"].passed
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    ok(1, f"push_contains fails bare, verifies via group and via single lemma, "
          f"usage report byte-exact ({elapsed * 1000:.0f} ms)")


SEC22 = """
spec fn is_even(i: int) -> bool { i % 2 == 0 }
proof fn seq_trigger_example(s: Seq<int>)
    requires
        5 <= s.len(),
        forall|i: int| 0 <= i < s.len() ==> #[trigger] is_even(s.index(i))
{
    assert(s.index(3) % 2 == 0);
}
"""


def test_criterion_02_golden_trigger_sensitivity():
    t0 = time.monotonic()
    manual_outer = run_source(SEC22)
    assert manual_outer.results["user::seq_trigger_example"].status == "failed"
    manual_inner = run_source(SEC22.replace(
        "#[trigger] is_even(s.index(i))", "is_even(#[trigger] s.index(i))"))
    assert manual_inner.results["user::seq_trigger_example"].passed
    at = run_source(SEC22.replace("forall|i: int|",
                                  "forall|i: int| #![all_triggers]")
                    .replace("#[trigger] ", ""))
    assert at.results["user::seq_trigger_example"].passed
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    ok(2, f"trigger is_even(s.index(i)) fails, s.index(i) verifies, "
          f"#![all_triggers] verifies ({elapsed * 1000:.0f} ms)")


SEC23 = """
proof fn seq_axiom_usage(s1: Seq<nat>, s2: Seq<nat>)
    requires s1.len() > 10 && s2.len() > 20
    ensures s1.add(s2).len() > 30
{ }
"""


def test_criterion_03_golden_default_prelude():
    with_default = run_source(SEC23)
    assert with_default.results["user::seq_axiom_usage"].passed
    without = run_source(SEC23, RunConfig(no_default_prelude=True))
    assert without.results["user::seq_axiom_usage"].status == "failed"
    ok(3, "seq_axiom_usage verifies with the default prelude group and fails "
          "with --no-default-prelude")


# ---------------------------------------------------------------------------


SPAN = SourceSpan("rand.tv", 0, 1, 1, 1)
INT, BOOL = Type("int"), Type("bool")


def _iv(name):
    return Var(SPAN, name=name, ty=INT)


def _il(v):
    return IntLit(SPAN, value=v, ty=INT)


def _call(name, *args, ty=INT):
    c = Call(SPAN, name=name, args=list(args), ty=ty)
    c.resolved = name
    return c


def _b(op, l, r):
    return BinOp(SPAN, op=op, lhs=l, rhs=r, ty=BOOL)


def _random_obligation(rng, n):
    names = ["c", "d"]

    def tm():
        r = rng.random()
        if r < 0.35:
            return _iv(rng.choice(names))
        if r < 0.6:
            return _il(rng.randint(0, n - 1))
        return _call("f", _iv(rng.choice(names)))

    def atom():
        if rng.random() < 0.4:
            return _call("p", tm(), ty=BOOL)
        return _b(rng.choice(["==", "<=", "<"]), tm(), tm())

    def lit():
        a = atom()
        if rng.random() < 0.3:
            from tunav.syntax.ast import Not
            return Not(SPAN, arg=a, ty=BOOL)
        return a

    def clause():
        if rng.random() < 0.4:
            return _b(rng.choice(["||", "&&", "==>"]), lit(), lit())
        return lit()

    hyps = [clause() for _ in range(rng.randint(1, 3))]
    goal = clause()
    facts, bodies = [], []
    if rng.random() < 0.5:
        body = _b(rng.choice(["==>", "||"]), _call("p", _iv("x"), ty=BOOL),
                  _b(rng.choice(["<=", "=="]), _call("f", _iv("x")), _iv("x")))
        facts.append(make_fact("rf", "rf", [("x", INT)], None, body,
                               [(_call("f", _iv("x")),)],
                               frozenset([Origin("lemma", "rf")]),
                               trig.CONSERVATIVE))
        bodies.append(body)
    return hyps, facts, bodies, goal


def test_criterion_04_soundness_property_suite():
    from tunav.syntax.ast import Binder

    t0 = time.monotonic()
    H = frozenset([Origin("local", "h")])
    G = frozenset([Origin("goal", "g")])
    n = 3
    verified = 0
    checked_interps = 0
    for seed in range(1000):
        rng = random.Random(seed)
        hyps, facts, bodies, goal = _random_obligation(rng, n)
        out = prove([(compile_formula(h, trig.CONSERVATIVE), H) for h in hyps],
                    facts, compile_formula(goal, trig.CONSERVATIVE), G,
                    limits=Limits(max_rounds=3, max_instantiations=300),
                    params={"c": INT, "d": INT})
        if out.status != "verified":
            continue
        verified += 1
        for k in range(20):
            irng = random.Random(100_000 + 1000 * seed + k)
            env = {"c": irng.randrange(n), "d": irng.randrange(n)}
            funcs = {"f": {i: irng.randrange(n) for i in range(n)},
                     "p": {i: irng.random() < 0.5 for i in range(n)}}
            hyps_hold = all(eval_finite(h, n, env, funcs) for h in hyps)
            for body in bodies:
                q = Forall(SPAN, binders=[Binder("x", INT)], body=body, ty=BOOL)
                hyps_hold = hyps_hold and eval_finite(q, n, env, funcs)
            if not hyps_hold:
                continue
            checked_interps += 1
            assert eval_finite(goal, n, env, funcs), \
                f"soundness violation at seed={seed} interp={k}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    ok(4, f"1000 randomized obligations, {verified} verified, "
          f"{checked_interps} interpretations checked, zero violations "
          f"({elapsed:.1f} s)")


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_resolution():
    from tunav.driver import resolve_with_prelude
    asts = load_sources(CORPUS)
    program, registry = resolve_with_prelude(asts)
    user_modules = {a.module for a in asts}
    tasks = [t for t in program.proof_fns()
             if program.decl_module[t] in user_modules]
    return asts, program, registry, tasks


def test_criterion_05_core_trim(corpus_resolution):
    _, program, registry, tasks = corpus_resolution
    config = RunConfig()
    trimmed_ok = 0
    for task in tasks:
        obs = generate_obligations(task, VcgenRun(program, registry, config))
        core = set()
        outs = []
        for ob in obs:
            out = prove_obligation(ob, config.limits)
            outs.append(out)
            if out.verified:
                core |= set(out.used_core)
        assert all(o.verified for o in outs), f"{task} baseline not verified"
        core_paths = {o.path for o in core}
        for ob in obs:
            kept = [qf for qf in ob.context.facts if qf.origin.path in core_paths]
            trimmed = dataclasses.replace(
                ob, context=dataclasses.replace(ob.context, facts=kept))
            out = prove_obligation(trimmed, config.limits)
            assert out.verified, f"core-trim broke {task} at {ob.site.describe()}"
        trimmed_ok += 1
    ok(5, f"used-core trim re-verifies {trimmed_ok}/{len(tasks)} functions (100%)")


@pytest.fixture(scope="module")
def baseline_minimize():
    asts = load_sources(CORPUS)
    report, pruned = minimize(asts, RunConfig())
    return asts, report, pruned


def test_criterion_06_minimizer_ground_truth(baseline_minimize):
    asts, report, pruned = baseline_minimize
    sites = enumerate_assert_sites(asts)
    ids = site_ids(sites)
    survivors = {(fn, n) for fn, n, _kind in LABELS["survivors"]}
    vanish = {tuple(x) for x in LABELS["vanish_with_parent"]}
    expected_removed = set(ids) - survivors - vanish
    actual_removed = set()
    per_fn = {}
    removed_keys = {s.span.key() for s in report.removed}
    for s, sid in zip(sites, ids):
        if s.span.key() in removed_keys:
            actual_removed.add(sid)
    assert actual_removed == expected_removed, (
        f"precision/recall != 1.0: extra={sorted(actual_removed - expected_removed)} "
        f"missed={sorted(expected_removed - actual_removed)}")
    # the minimized corpus re-verifies under the same configuration
    run = verify_program(pruned, RunConfig())
    assert all(run.results[t].passed for t in run.user_tasks)
    # idempotence: a second pass removes nothing
    report2, _ = minimize(pruned, RunConfig())
    assert report2.removed == []
    assert report2.surviving_count == report.surviving_count
    ok(6, f"minimizer removed exactly the {len(expected_removed)} labeled-"
          f"redundant sites of {len(sites)} (precision=recall=1.0), "
          f"re-verifies, idempotent")


def test_criterion_07_ambient_facts_tradeoff(baseline_minimize):
    asts, base_report, _ = baseline_minimize
    amb_report, _ = minimize(asts, RunConfig(ambient=AMBIENT))
    base_removed = {(s.function, s.ordinal) for s in base_report.removed}
    amb_removed = {(s.function, s.ordinal) for s in amb_report.removed}
    extra = len(amb_removed) - len(base_removed)
    assert amb_removed >= base_removed
    assert extra >= 1, "ambient facts must enable at least one more removal"
    run_base = verify_program(asts, RunConfig())
    run_amb = verify_program(asts, RunConfig(ambient=AMBIENT))
    # monotone automation: adding facts never turns verified into failed
    assert all(run_amb.results[t].passed for t in run_amb.user_tasks)
    insts_base = sum(sum(run_base.results[t].instantiations.values())
                     for t in run_base.user_tasks)
    insts_amb = sum(sum(run_amb.results[t].instantiations.values())
                    for t in run_amb.user_tasks)
    assert insts_amb > insts_base
    cmp = compare_metrics(records_of_run(run_base, RunConfig()),
                          records_of_run(run_amb, RunConfig(ambient=AMBIENT)))
    assert cmp.total_instantiations_b > cmp.total_instantiations_a
    ok(7, f"ambient group_<type>_properties: +{extra} removals "
          f"({len(base_removed)} -> {len(amb_removed)}), instantiations "
          f"{insts_base} -> {insts_amb} (strictly greater)")


def test_criterion_08_trigger_strategy_tradeoff():
    stripped = strip_manual_triggers(load_sources(CORPUS))
    cons = verify_program(stripped, RunConfig(strategy=trig.CONSERVATIVE))
    at = verify_program(strip_manual_triggers(load_sources(CORPUS)),
                        RunConfig(strategy=trig.ALL_TRIGGERS))
    nc = sum(1 for t in cons.user_tasks if cons.results[t].passed)
    na = sum(1 for t in at.user_tasks if at.results[t].passed)
    assert na >= nc, "all_triggers must verify at least as many functions"
    both = [t for t in cons.user_tasks
            if cons.results[t].passed and at.results[t].passed]
    for t in both:
        ic = sum(cons.results[t].instantiations.values())
        ia = sum(at.results[t].instantiations.values())
        assert ia >= ic, f"{t}: all_triggers instantiations {ia} < {ic}"
    # minimize the subset that verifies under both strategies
    both_set = set(both)

    def filter_asts():
        out = []
        for ast in strip_manual_triggers(load_sources(CORPUS)):
            decls = [d for d in ast.declarations
                     if not (type(d).__name__ == "ProofFn"
                             and not getattr(d, "broadcast", False)
                             and f"{ast.module}::{d.name}" not in both_set)]
            out.append(dataclasses.replace(ast, declarations=decls))
        return out

    rep_cons, _ = minimize(filter_asts(),
                           RunConfig(strategy=trig.CONSERVATIVE))
    rep_at, _ = minimize(filter_asts(), RunConfig(strategy=trig.ALL_TRIGGERS))
    extra = len(rep_at.removed) - len(rep_cons.removed)
    assert extra >= 1, "all_triggers must enable at least one more removal"
    ok(8, f"stripped corpus: all_triggers verifies {na} >= conservative {nc}; "
          f"instantiations per function superset holds on {len(both)} "
          f"functions; +{extra} removals under all_triggers")


def test_criterion_09_matching_loop_termination():
    t0 = time.monotonic()
    body = _b("==", _call("f", _call("f", _iv("x"))),
              BinOp(SPAN, op="+", lhs=_call("f", _iv("x")), rhs=_il(1), ty=INT))
    loop_fact = make_fact("loop", "loop", [("x", INT)], None, body,
                          [(_call("f", _iv("x")),)],
                          frozenset([Origin("lemma", "loop")]), trig.CONSERVATIVE)
    hyp = (compile_formula(_b("==", _call("f", _il(0)), _call("f", _il(0))),
                           trig.CONSERVATIVE),
           frozenset([Origin("local", "seed")]))
    goal = compile_formula(_call("p", _il(0), ty=BOOL), trig.CONSERVATIVE)
    limits = Limits()
    out = prove([hyp], [loop_fact], goal, frozenset([Origin("goal", "g")]),
                limits=limits)
    elapsed = time.monotonic() - t0
    assert out.status == "unknown" and out.reason == "rounds"
    assert sum(out.instantiations.values()) <= limits.max_instantiations
    assert out.rounds_used <= limits.max_rounds
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok(9, f"self-feeding fact returns Unknown(rounds) in {elapsed * 1000:.0f} ms, "
          f"{sum(out.instantiations.values())} instantiations "
          f"<= {limits.max_instantiations}")


def test_criterion_10_scc_ordering(corpus_resolution):
    asts, program, registry, tasks = corpus_resolution
    order = order_tasks(program, registry)
    position = {t: i for i, t in enumerate(order.tasks)}
    checked = 0
    for task, deps in order.deps.items():
        for dep in deps:
            assert position[dep] < position[task], \
                f"{dep} must be verified before {task}"
            checked += 1
    # execute in order with instrumentation: a fact is never imported before
    # its defining task completed
    completed = set()
    for task in order.tasks:
        for dep in order.deps[task]:
            assert dep in completed
        completed.add(task)
    # the 2-cycle example names both lemmas
    cyc_src = """
spec fn g(i: int) -> int;
broadcast proof fn a(x: int)
    ensures #[trigger] g(x) == g(x)
{
    broadcast use {b};
}
broadcast proof fn b(x: int)
    ensures #[trigger] g(x) == g(x)
{
    broadcast use {a};
}
"""
    from tunav.driver import resolve_with_prelude
    p2, r2 = resolve_with_prelude([parse_module(cyc_src, "cyc.tv", module="cyc")])
    with pytest.raises(CycleError) as e:
        order_tasks(p2, r2)
    assert e.value.members == ["cyc::a", "cyc::b"]
    ok(10, f"lemma-before-user ordering holds for {checked} dependency edges; "
           f"2-cycle yields CycleError naming both lemmas")


def test_criterion_11_failure_time_sampling(baseline_minimize, tmp_path):
    _, report, pruned = baseline_minimize
    paths = []
    for ast in pruned:
        p = tmp_path / os.path.basename(ast.path)
        p.write_text(render_module(ast))
        paths.append(str(p))
    out_csv = str(tmp_path / "failures.csv")
    code = cli_main(["sample-failures", *paths, "--n", "20", "--seed", "1",
                     "--out", out_csv])
    assert code == 0
    import csv
    with open(out_csv, newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows, "sampling produced no rows"
    budget_ms = Limits().time_budget_ms
    for row in rows:
        assert row["status"] in ("failed", "unknown", "verified")
        assert float(row["removed_ms"]) < budget_ms, "timeout explosion"
        assert row["status"] != "verified", \
            "removing a surviving assert must fail (1-minimality spot check)"
    ok(11, f"sample-failures completed on the minimized corpus: {len(rows)} "
           f"removals, all reported within {budget_ms} ms, ratios in CSV")


def test_criterion_12_determinism():
    config = RunConfig(jobs=1, no_timing=True, usage_report=True)
    asts1 = load_sources(CORPUS)
    run1 = verify_program(asts1, config)
    text1 = render_report(run1, config)
    run2 = verify_program(load_sources(CORPUS), config)
    text2 = render_report(run2, config)
    assert text1 == text2, "two --jobs 1 --no-timing runs must be byte-identical"
    par = verify_program(load_sources(CORPUS),
                         RunConfig(jobs=8, no_timing=True))
    assert {t: r.status for t, r in run1.results.items()} == \
           {t: r.status for t, r in par.results.items()}
    ok(12, "two --jobs 1 --no-timing runs byte-identical; --jobs 8 statuses "
           "equal --jobs 1")
