"""Linear integer arithmetic over term-graph class representatives.

Constraints are normalized to `sum(c_i * v_i) + k <= 0` with exact integer
coefficients; satisfiability is decided by gcd tightening plus Fourier-Motzkin
elimination. Refutations are sound for the integers (tightening only ever
strengthens); completeness is bounded by the elimination cap, beyond which the
check answers "unknown". Every derived constraint carries the set of source
atoms, so an inconsistency reports exactly the atoms it used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
UNKNOWN = "unknown"

ELIM_CAP = 12
CONSTRAINT_CAP = 4000


@dataclass
class Constraint:
    """sum(coeffs[v] * v) + const <= 0"""

    coeffs: dict[int, int]
    const: int
    sources: frozenset[int]

    def tightened(self) -> "Constraint":
        if not self.coeffs:
            return self
        g = 0
        for c in self.coeffs.values():
            g = gcd(g, abs(c))
        if g <= 1:
            return self
        coeffs = {v: c // g for v, c in self.coeffs.items()}
        # sum(c/g * v) <= floor(-k/g)
        bound = (-self.const) // g
        return Constraint(coeffs, -bound, self.sources)


@dataclass
class ArithResult:
    status: str
    conflict_sources: frozenset[int] = frozenset()
    # variables pinned to a single value by their direct bounds
    equalities: list[tuple[int, int, frozenset[int]]] = field(default_factory=list)


def linearize(graph, tid: int, used_values: list[tuple[int, int]],
              leaves: list[int] | None = None) -> tuple[dict[int, int], int]:
    """Interpret +, -, and constant multiplication structurally; everything
    else is an opaque variable named by its class root, substituted by its
    class value when one is known. Structure wins over class values for
    interpreted heads so that merges never erase linear content.
    Class-literal substitutions are recorded in `used_values` as
    (term, literal-term) pairs, and opaque leaf terms in `leaves`, for
    provenance (variables alias across atoms exactly via class merges)."""
    sym = graph.syms[tid]
    args = graph.targs[tid]
    if sym == "+" or sym == "-":
        lc, lk = linearize(graph, args[0], used_values, leaves)
        rc, rk = linearize(graph, args[1], used_values, leaves)
        return _combine(lc, lk, rc, rk, 1 if sym == "+" else -1)
    if sym == "*":
        lc, lk = linearize(graph, args[0], used_values, leaves)
        rc, rk = linearize(graph, args[1], used_values, leaves)
        if not lc:
            return ({v: lk * c for v, c in rc.items() if lk * c != 0}, lk * rk)
        if not rc:
            return ({v: rk * c for v, c in lc.items() if rk * c != 0}, lk * rk)
        # nonlinear: fall through (opaque unless the class has a value)
    root = graph.find(tid)
    val = graph.class_val.get(root)
    if val is not None:
        if tid not in graph.int_val:
            used_values.append((tid, val[1]))
        return {}, val[0]
    if leaves is not None:
        leaves.append(tid)
    return {root: 1}, 0


def _combine(lhs: dict[int, int], lk: int, rhs: dict[int, int], rk: int,
             sign: int) -> tuple[dict[int, int], int]:
    out = dict(lhs)
    for v, c in rhs.items():
        out[v] = out.get(v, 0) + sign * c
        if out[v] == 0:
            del out[v]
    return out, lk + sign * rk


def atom_constraints(graph, kind: str, l: int, r: int, idx: int,
                     used_values: list[tuple[int, int]],
                     leaves: list[int] | None = None) -> list[Constraint]:
    """kind: 'le' (l <= r), 'lt' (l < r), or 'eq' (l == r)."""
    lc, lk = linearize(graph, l, used_values, leaves)
    rc, rk = linearize(graph, r, used_values, leaves)
    coeffs, const = _combine(lc, lk, rc, rk, -1)  # l - r
    src = frozenset([idx])
    if kind == "le":
        return [Constraint(coeffs, const, src).tightened()]
    if kind == "lt":
        return [Constraint(coeffs, const + 1, src).tightened()]
    if kind == "eq":
        neg = {v: -c for v, c in coeffs.items()}
        return [Constraint(coeffs, const, src).tightened(),
                Constraint(neg, -const, src).tightened()]
    raise ValueError(f"unknown arith atom kind {kind}")


def check_constraints(constraints: list[Constraint]) -> ArithResult:
    """Decide a conjunction of normalized constraints by bound propagation and
    Fourier-Motzkin elimination with integer tightening."""
    work = [c.tightened() for c in constraints]

    def scan_ground(cs) -> ArithResult | None:
        for c in cs:
            if not c.coeffs and c.const > 0:
                return ArithResult(INCONSISTENT, c.sources)
        return None

    bad = scan_ground(work)
    if bad:
        return bad

    equalities = _direct_equalities(work)

    # eliminate variables, fewest (uppers * lowers) first, least id on ties
    eliminated = 0
    while True:
        counts: dict[int, list[int]] = {}  # variable -> [uppers, lowers]
        for c in work:
            for v, k in c.coeffs.items():
                n = counts.get(v)
                if n is None:
                    n = counts[v] = [0, 0]
                if k > 0:
                    n[0] += 1
                elif k < 0:
                    n[1] += 1
        if not counts:
            return ArithResult(CONSISTENT, equalities=equalities)
        if eliminated >= ELIM_CAP or len(work) > CONSTRAINT_CAP:
            return ArithResult(UNKNOWN, equalities=equalities)
        _, var = min((ups * downs, v) for v, (ups, downs) in counts.items())
        uppers: list[Constraint] = []
        lowers: list[Constraint] = []
        rest: list[Constraint] = []
        for c in work:
            k = c.coeffs.get(var)
            if k is None:
                rest.append(c)
            elif k > 0:
                uppers.append(c)
            elif k < 0:
                lowers.append(c)
        new = []
        for up in uppers:
            a = up.coeffs[var]
            for lo in lowers:
                b = -lo.coeffs[var]
                coeffs: dict[int, int] = {}
                for v, c in up.coeffs.items():
                    coeffs[v] = coeffs.get(v, 0) + b * c
                for v, c in lo.coeffs.items():
                    coeffs[v] = coeffs.get(v, 0) + a * c
                coeffs = {v: c for v, c in coeffs.items() if c != 0 and v != var}
                const = b * up.const + a * lo.const
                cons = Constraint(coeffs, const, up.sources | lo.sources).tightened()
                if not cons.coeffs:
                    if cons.const > 0:
                        return ArithResult(INCONSISTENT, cons.sources,
                                           equalities=equalities)
                    continue
                new.append(cons)
        work = rest + new
        eliminated += 1
        bad = scan_ground(work)
        if bad:
            bad.equalities = equalities
            return bad


def _direct_equalities(work: list[Constraint]) -> list[tuple[int, int, frozenset[int]]]:
    """Variables pinned by their own single-variable bounds (lo == hi)."""
    lo: dict[int, tuple[int, frozenset]] = {}
    hi: dict[int, tuple[int, frozenset]] = {}
    for c in work:
        if len(c.coeffs) != 1:
            continue
        (v, coef), = c.coeffs.items()
        if coef > 0:
            # coef*v + k <= 0  =>  v <= floor(-k / coef)
            bound = (-c.const) // coef
            if v not in hi or bound < hi[v][0]:
                hi[v] = (bound, c.sources)
        else:
            # coef*v + k <= 0 with coef < 0  =>  v >= ceil(k / -coef)
            bound = -((-c.const) // (-coef))
            if v not in lo or bound > lo[v][0]:
                lo[v] = (bound, c.sources)
    out = []
    for v in sorted(set(lo) & set(hi)):
        if lo[v][0] == hi[v][0]:
            out.append((v, lo[v][0], lo[v][1] | hi[v][1]))
    return out
