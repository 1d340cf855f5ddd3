"""Linear integer arithmetic over term-graph class representatives.

A constraint is a row `(coeffs, const, sources)` standing for
`sum(coeffs[v] * v) + const <= 0`, with exact integer coefficients and no
zero coefficient. `sources` is a bitmask over atom indices: bit `i` is set
when atom `i` went into the row, so combining two rows ORs their masks. A
row is tightened once, when it is made (`row`): its coefficients are divided
by their gcd and its constant rounded toward the stronger bound, which only
ever strengthens it over the integers.

Satisfiability is decided by Fourier-Motzkin (FM) elimination of tightened
rows. Refutations are sound for the integers; completeness is bounded by
`ELIM_CAP` eliminations that combine rows, and by `CONSTRAINT_CAP` rows,
beyond which the check answers "unknown". Dropping a variable with only
upper or only lower bounds combines nothing and is exact, so it does not
count toward the cap. An inconsistency reports the mask of exactly the
atoms it used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
UNKNOWN = "unknown"

ELIM_CAP = 12
CONSTRAINT_CAP = 4000


def row(coeffs: dict[int, int], const: int, sources: int
        ) -> tuple[dict[int, int], int, int]:
    """The row `sum(coeffs[v] * v) + const <= 0` from atoms `sources`,
    tightened: `coeffs` must hold no zero, and is divided by its gcd."""
    g = 0
    for c in coeffs.values():
        g = gcd(g, c)
        if g == 1:
            return coeffs, const, sources
    if g == 0:
        return coeffs, const, sources
    # sum(c/g * v) <= floor(-k/g)
    return {v: c // g for v, c in coeffs.items()}, -((-const) // g), sources


def indices(mask: int) -> list[int]:
    """The atom indices of a sources mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass
class ArithResult:
    status: str
    conflict_sources: int = 0  # mask of the refuting atoms
    # variables pinned to a single value by their direct bounds, with the
    # mask of the atoms that pin them
    equalities: list[tuple[int, int, int]] = field(default_factory=list)


def _linear(graph, tid: int, mult: int, coeffs: dict[int, int],
            used_values: list[tuple[int, int]], leaves: list[int]) -> int:
    """Add `mult` times the linear form of `tid` into `coeffs` and return
    `mult` times its constant. +, - and multiplication by a constant are
    read structurally; everything else is an opaque variable named by its
    class root, substituted by its class value when one is known. Structure
    wins over class values for interpreted heads so that merges never erase
    linear content. Class-literal substitutions are recorded in
    `used_values` as (term, literal-term) pairs, and opaque leaf terms in
    `leaves`, for provenance (variables alias across atoms exactly via class
    merges). `coeffs` may be left holding zeros."""
    sym = graph.syms[tid]
    if sym == "+" or sym == "-":
        a, b = graph.targs[tid]
        k = _linear(graph, a, mult, coeffs, used_values, leaves)
        return k + _linear(graph, b, mult if sym == "+" else -mult, coeffs,
                           used_values, leaves)
    if sym == "*":
        a, b = graph.targs[tid]
        lc: dict[int, int] = {}
        lk = _linear(graph, a, 1, lc, used_values, leaves)
        rc: dict[int, int] = {}
        rk = _linear(graph, b, 1, rc, used_values, leaves)
        left_const = not any(lc.values())
        if left_const or not any(rc.values()):
            k, linear = (lk, rc) if left_const else (rk, lc)
            for v, c in linear.items():
                coeffs[v] = coeffs.get(v, 0) + mult * k * c
            return mult * lk * rk
        # nonlinear: fall through (opaque unless the class has a value)
    root = graph.find(tid)
    val = graph.class_val.get(root)
    if val is not None:
        if tid not in graph.int_val:
            used_values.append((tid, val[1]))
        return mult * val[0]
    leaves.append(tid)
    coeffs[root] = coeffs.get(root, 0) + mult
    return 0


def atom_rows(graph, kind: str, l: int, r: int, idx: int, rows: list,
              used_values: list[tuple[int, int]], leaves: list[int]):
    """Append the tightened rows of atom `idx` to `rows`. kind: 'le'
    (l <= r), 'lt' (l < r), or 'eq' (l == r)."""
    coeffs: dict[int, int] = {}
    const = (_linear(graph, l, 1, coeffs, used_values, leaves)
             + _linear(graph, r, -1, coeffs, used_values, leaves))  # l - r
    if 0 in coeffs.values():
        coeffs = {v: c for v, c in coeffs.items() if c}
    src = 1 << idx
    if kind == "le":
        rows.append(row(coeffs, const, src))
    elif kind == "lt":
        rows.append(row(coeffs, const + 1, src))
    elif kind == "eq":
        rows.append(row(coeffs, const, src))
        rows.append(row({v: -c for v, c in coeffs.items()}, -const, src))
    else:
        raise ValueError(f"unknown arith atom kind {kind}")


def check_constraints(rows: list[tuple[dict[int, int], int, int]]) -> ArithResult:
    """Decide a conjunction of tightened rows (see `row`): read the
    variables pinned by their own bounds, then eliminate variables by FM,
    tightening each row it makes."""
    for coeffs, const, sources in rows:
        if not coeffs and const > 0:
            return ArithResult(INCONSISTENT, sources)

    equalities = _direct_equalities(rows)

    # eliminate variables, fewest (uppers * lowers) first, least id on ties
    work = rows
    counts = _counts(work)
    eliminated = 0
    while True:
        if not counts:
            return ArithResult(CONSISTENT, equalities=equalities)
        if eliminated >= ELIM_CAP or len(work) > CONSTRAINT_CAP:
            return ArithResult(UNKNOWN, equalities=equalities)
        cost = var = None
        one_sided = []
        for v, (ups, downs) in counts.items():
            c = ups * downs
            if not c:
                one_sided.append(v)
            elif cost is None or c < cost or (c == cost and v < var):
                cost, var = c, v
        if one_sided:
            work = _drop(work, counts, one_sided)
            continue
        uppers = []
        lowers = []
        rest = []
        for r in work:
            k = r[0].get(var)
            if k is None:
                rest.append(r)
            elif k > 0:
                uppers.append(r)
            elif k < 0:
                lowers.append(r)
        for ucoeffs, uconst, usrc in uppers:
            a = ucoeffs[var]
            for lcoeffs, lconst, lsrc in lowers:
                b = -lcoeffs[var]
                coeffs = {v: b * c for v, c in ucoeffs.items() if v != var}
                for v, c in lcoeffs.items():
                    if v != var:
                        c = coeffs.get(v, 0) + a * c
                        if c:
                            coeffs[v] = c
                        else:
                            del coeffs[v]
                const = b * uconst + a * lconst
                if not coeffs:
                    if const > 0:
                        return ArithResult(INCONSISTENT, usrc | lsrc,
                                           equalities=equalities)
                    continue
                rest.append(row(coeffs, const, usrc | lsrc))
        work = rest
        counts = _counts(work)
        eliminated += 1


def _counts(work: list) -> dict[int, list[int]]:
    """Variable -> [uppers, lowers]: how many rows of `work` bound it from
    above and from below."""
    counts: dict[int, list[int]] = {}
    for coeffs, _, _ in work:
        for v, k in coeffs.items():
            n = counts.get(v)
            if n is None:
                n = counts[v] = [0, 0]
            n[k < 0] += 1
    return counts


def _drop(work: list, counts: dict[int, list[int]], one_sided: list[int]) -> list:
    """Drop the variables `one_sided`, which have only upper or only lower
    bounds, and all their rows from `work` in one pass, taking those rows
    out of `counts` too. A drop combines nothing, and it only lowers
    counts, so the rows left once no variable is one-sided are the same in
    any order of drops."""
    for v in one_sided:
        del counts[v]
    dropped = set(one_sided)
    keep = []
    for r in work:
        coeffs = r[0]
        if dropped.isdisjoint(coeffs):
            keep.append(r)
            continue
        for v, k in coeffs.items():
            n = counts.get(v)
            if n is not None:
                n[k < 0] -= 1
    return keep


def _direct_equalities(rows: list[tuple[dict[int, int], int, int]]
                       ) -> list[tuple[int, int, int]]:
    """Variables pinned by their own single-variable bounds (lo == hi)."""
    lo: dict[int, tuple[int, int]] = {}
    hi: dict[int, tuple[int, int]] = {}
    for coeffs, const, sources in rows:
        if len(coeffs) != 1:
            continue
        (v, coef), = coeffs.items()
        if coef > 0:
            # coef*v + k <= 0  =>  v <= floor(-k / coef)
            bound = (-const) // coef
            if v not in hi or bound < hi[v][0]:
                hi[v] = (bound, sources)
        else:
            # coef*v + k <= 0 with coef < 0  =>  v >= ceil(k / -coef)
            bound = -((-const) // (-coef))
            if v not in lo or bound > lo[v][0]:
                lo[v] = (bound, sources)
    out = []
    for v in sorted(set(lo) & set(hi)):
        if lo[v][0] == hi[v][0]:
            out.append((v, lo[v][0], lo[v][1] | hi[v][1]))
    return out
