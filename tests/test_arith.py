"""The linear-arithmetic solver against brute force and against a frozen
copy of its Fourier-Motzkin (FM) loop, and the prover on linear
obligations, including one FM gives up on and one whose conflict is past
the 64th atom."""

import itertools
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tunav import triggers as trig
from tunav.driver import RunConfig, verify_program
from tunav.engine import Limits, Origin, prove
from tunav.engine.arith import (
    CONSISTENT,
    CONSTRAINT_CAP,
    ELIM_CAP,
    INCONSISTENT,
    UNKNOWN,
    check_constraints,
    row,
)
from tunav.engine.finite import eval_finite
from tunav.engine.prover import compile_formula
from tunav.syntax import parse_module
from tunav.syntax.ast import BinOp, IntLit, Not, SourceSpan, Type, Var

SPAN = SourceSpan("t.tv", 0, 1, 1, 1)
INT = Type("int")
BOOL = Type("bool")
BOX = range(-5, 6)
# a fixed seed and no example database: the same examples on every run
ORACLE = settings(max_examples=150, deadline=None, derandomize=True,
                  database=None, suppress_health_check=[HealthCheck.too_slow])


# -- a frozen copy of the FM loop the solver must keep agreeing with ----------


def _tight(coeffs, const):
    g = 0
    for c in coeffs.values():
        g = gcd(g, abs(c))
    if g <= 1:
        return coeffs, const
    return {v: c // g for v, c in coeffs.items()}, -((-const) // g)


def reference_check(constraints):
    """(status, conflict sources, equalities), as the solver decided them
    when it scanned every constraint once per candidate variable. An
    elimination counts toward ELIM_CAP only when it combines rows."""
    work = [(*_tight(k, n), s) if k else (k, n, s) for k, n, s in constraints]

    def ground_conflict(cs):
        return next((s for k, n, s in cs if not k and n > 0), None)

    lo, hi = {}, {}
    for k, n, s in work:
        if len(k) != 1:
            continue
        (v, c), = k.items()
        if c > 0:
            bound = (-n) // c
            if v not in hi or bound < hi[v][0]:
                hi[v] = (bound, s)
        else:
            bound = -((-n) // (-c))
            if v not in lo or bound > lo[v][0]:
                lo[v] = (bound, s)
    bad = ground_conflict(work)
    if bad is not None:
        return INCONSISTENT, bad, []
    eqs = [(v, lo[v][0], lo[v][1] | hi[v][1]) for v in sorted(set(lo) & set(hi))
           if lo[v][0] == hi[v][0]]
    eliminated = 0
    while True:
        variables = sorted({v for k, _, _ in work for v in k})
        if not variables:
            return CONSISTENT, 0, eqs
        if eliminated >= ELIM_CAP or len(work) > CONSTRAINT_CAP:
            return UNKNOWN, 0, eqs

        def cost(v):
            return (sum(1 for k, _, _ in work if k.get(v, 0) > 0)
                    * sum(1 for k, _, _ in work if k.get(v, 0) < 0), v)

        var = min(variables, key=cost)
        combines = cost(var)[0] > 0
        uppers = [w for w in work if w[0].get(var, 0) > 0]
        lowers = [w for w in work if w[0].get(var, 0) < 0]
        new = [w for w in work if var not in w[0]]
        for uk, un, us in uppers:
            a = uk[var]
            for lk, ln, ls in lowers:
                b = -lk[var]
                coeffs = {}
                for v, c in uk.items():
                    coeffs[v] = coeffs.get(v, 0) + b * c
                for v, c in lk.items():
                    coeffs[v] = coeffs.get(v, 0) + a * c
                coeffs = {v: c for v, c in coeffs.items() if c != 0 and v != var}
                coeffs, const = _tight(coeffs, b * un + a * ln)
                if not coeffs:
                    if const > 0:
                        return INCONSISTENT, us | ls, eqs
                    continue
                new.append((coeffs, const, us | ls))
        work = new
        if combines:
            eliminated += 1
        bad = ground_conflict(work)
        if bad is not None:
            return INCONSISTENT, bad, eqs


# -- the solver against brute force and the reference ---------------------------


@st.composite
def systems(draw):
    """2-4 variables and 1-7 rows `sum(c_i * v_i) + k <= 0` with up to four
    terms each; an equality atom gives two rows one source bit."""
    n = draw(st.integers(2, 4))
    coeff = st.integers(-4, 4).filter(bool)
    rows = draw(st.lists(
        st.tuples(st.dictionaries(st.integers(0, n - 1), coeff, min_size=1),
                  st.integers(-9, 9), st.booleans()),
        min_size=1, max_size=7))
    out = []
    for i, (coeffs, const, eq) in enumerate(rows):
        out.append(row(coeffs, const, 1 << i))
        if eq:
            out.append(row({v: -c for v, c in coeffs.items()}, -const, 1 << i))
    return n, out


def models(n, constraints):
    return [vals for vals in itertools.product(BOX, repeat=n)
            if all(sum(c * vals[v] for v, c in k.items()) + n <= 0
                   for k, n, _ in constraints)]


@ORACLE
@given(systems())
def test_check_constraints_against_brute_force_and_reference(system):
    """An inconsistency has no model in the box, and neither has the subset
    its sources name; every derived equality holds in every model."""
    n, cs = system
    res = check_constraints(cs)
    assert (res.status, res.conflict_sources, res.equalities) == reference_check(cs)
    found = models(n, cs)
    if res.status == INCONSISTENT:
        assert not found
        core = [c for c in cs if c[2] & ~res.conflict_sources == 0]
        assert not models(n, core)
    for var, value, sources in res.equalities:
        assert all(vals[var] == value for vals in found)
        pinned = [c for c in cs if c[2] & ~sources == 0]
        assert all(vals[var] == value for vals in models(n, pinned))


# -- the prover on ground linear obligations with `%` ----------------------------


def _var(name):
    return Var(SPAN, name=name, ty=INT)


def _int(value):
    return IntLit(SPAN, value=value, ty=INT)


def _bin(op, lhs, rhs, ty=INT):
    return BinOp(SPAN, op=op, lhs=lhs, rhs=rhs, ty=ty)


@st.composite
def obligations(draw):
    """Hypotheses and a goal over 2-3 int params, built from `+`, `-`,
    constant multiples and `%` by a positive literal."""
    names = ["a", "b", "c"][:draw(st.integers(2, 3))]
    leaf = st.one_of(st.sampled_from(names).map(_var),
                     st.integers(-3, 3).map(_int))
    term = st.recursive(leaf, lambda t: st.one_of(
        st.tuples(st.sampled_from("+-"), t, t).map(lambda x: _bin(*x)),
        st.tuples(st.integers(-3, 3), t).map(lambda x: _bin("*", _int(x[0]), x[1])),
        st.tuples(t, st.integers(1, 4)).map(lambda x: _bin("%", x[0], _int(x[1])))),
        max_leaves=4)
    atom = st.tuples(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                     term, term).map(lambda x: _bin(*x, ty=BOOL))
    literal = st.one_of(atom, atom.map(lambda a: Not(SPAN, arg=a, ty=BOOL)))
    clause = st.one_of(literal, st.tuples(st.sampled_from(["||", "&&", "==>"]),
                                          literal, literal)
                       .map(lambda x: _bin(*x, ty=BOOL)))
    return names, draw(st.lists(clause, max_size=3)), draw(clause)


@ORACLE
@given(obligations())
def test_prove_linear_obligations_sound(obligation):
    names, hyps, goal = obligation
    hyp = frozenset([Origin("local", "hyp")])
    out = prove([(compile_formula(h, trig.CONSERVATIVE), hyp) for h in hyps], [],
                compile_formula(goal, trig.CONSERVATIVE),
                frozenset([Origin("goal", "goal")]),
                Limits(max_rounds=2, max_splits=200),
                params={name: INT for name in names})
    if out.status != "verified":
        return
    for vals in itertools.product(BOX, repeat=len(names)):
        env = dict(zip(names, vals))
        if all(eval_finite(h, 0, env) for h in hyps):
            assert eval_finite(goal, 0, env), f"counterexample {env}"


# -- a branch Fourier-Motzkin gave up on ------------------------------------------


def cycle_source(n: int) -> str:
    """A proof fn whose hypotheses x0 < x1 < ... < x(n-1) < x0 have no model."""
    xs = [f"x{i}" for i in range(n)]
    less = ", ".join(f"{a} < {b}" for a, b in zip(xs, xs[1:] + xs[:1]))
    return (f"proof fn cyc({', '.join(x + ': int' for x in xs)})\n"
            f"    requires {less}\n    ensures false\n{{ }}\n")


@pytest.mark.parametrize("n, status, reason", [
    (10, "verified", None),
    # 14 variables take FM past ELIM_CAP eliminations, and it gives up
    (14, "unknown", "arithmetic"),
])
def test_a_branch_fourier_motzkin_gave_up_on_is_not_failed(n, status, reason):
    asts = [parse_module(cycle_source(n), "cyc.tv", module="cyc")]
    (_, out), = verify_program(asts, RunConfig()).results["cyc::cyc"].obligations
    assert (out.status, out.reason) == (status, reason)


def test_core_alone_may_escape_refutation():
    """Integer tightening depends on the elimination order, and the order
    depends on every constraint present: with x1 + x3 == 0 and
    x0 + x1 + x2 == 0, source 0 forces 2 * x2 == 1. The whole system is
    refuted through source 1's bound; the core {0, 2, 3} alone is
    eliminated in another order that never tightens the parity, so it is
    reported consistent though it has no integer model."""
    def eq(coeffs, const, src):
        return [row(coeffs, const, 1 << src),
                row({v: -c for v, c in coeffs.items()}, -const, 1 << src)]

    core = (eq({0: 1, 1: 2, 2: -1, 3: 1}, 1, 0) + eq({1: 1, 3: 1}, 0, 2)
            + eq({0: 1, 1: 1, 2: 1}, 0, 3))
    whole = core[:2] + [row({0: 1, 2: 1}, 0, 1 << 1)] + core[2:]
    res = check_constraints(whole)
    assert (res.status, res.conflict_sources) == (INCONSISTENT, 0b1101)
    assert check_constraints(core).status == CONSISTENT
    assert not models(4, core)


def test_eliminations_that_combine_nothing_do_not_count_toward_the_cap():
    """y0, ..., y67 have only lower bounds: dropping each one makes no row
    and is exact, so FM reaches x within ELIM_CAP and refutes x < 0 < x.
    The conflict names atoms 0 and 69, past the 64th bit of its mask."""
    ys = [f"y{i}" for i in range(68)]
    src = (f"proof fn spread(x: int, {', '.join(y + ': int' for y in ys)})\n"
           f"    requires x < 0, {', '.join(f'{y} > {i}' for i, y in enumerate(ys))},"
           f" 0 < x\n    ensures false\n{{ }}\n")
    asts = [parse_module(src, "spread.tv", module="spread")]
    (_, out), = verify_program(asts, RunConfig()).results["spread::spread"].obligations
    assert out.status == "verified"
    assert sorted(o.path for o in out.used_core) == [
        "requires#0", "requires#69"]
