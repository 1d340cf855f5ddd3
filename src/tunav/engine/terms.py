"""Hash-consed ground term graph with congruence closure.

Every union edge is recorded in a proof forest so `explain(a, b)` can return
the set of asserted-literal origins that justify a congruence, which is what
used-fact core extraction is built on. Interpreted arithmetic heads (+ - * %)
constant-fold once all argument classes carry integer values.
"""

from __future__ import annotations

EMPTY: frozenset = frozenset()

FOLDABLE = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    # Euclidean, as SMT-LIB's `mod`: 0 <= a % b < |b|
    "%": lambda a, b: a % abs(b) if b != 0 else None,
}


class TermGraph:
    def __init__(self):
        self.syms: list[str] = []
        self.targs: list[tuple[int, ...]] = []
        self.origins: list[frozenset] = []  # creation origins, first-wins
        self.hashcons: dict = {}
        self.parent: list[int] = []
        self.rank: list[int] = []
        self.canon: dict[int, int] = {}  # root -> least member tid
        self.members: dict[int, list[int]] = {}
        self.uses: dict[int, list[int]] = {}  # root -> parent app tids
        self.sig: dict = {}  # (sym, canon arg roots) -> representative tid
        self.by_head: dict[str, list[int]] = {}
        self.int_val: dict[int, int] = {}  # literal tid -> value
        self.class_val: dict[int, tuple[int, int]] = {}  # root -> (value, lit tid)
        self.pf_parent: dict[int, int] = {}
        self.pf_reason: dict[int, tuple] = {}
        self.pending: list[tuple[int, int, tuple]] = []
        self.fold_todo: list[int] = []
        self.conflict: frozenset | None = None

    def clone(self) -> "TermGraph":
        g = TermGraph.__new__(TermGraph)
        g.syms = list(self.syms)
        g.targs = list(self.targs)
        g.origins = list(self.origins)
        g.hashcons = dict(self.hashcons)
        g.parent = list(self.parent)
        g.rank = list(self.rank)
        g.canon = dict(self.canon)
        g.members = {k: list(v) for k, v in self.members.items()}
        g.uses = {k: list(v) for k, v in self.uses.items()}
        g.sig = dict(self.sig)
        g.by_head = {k: list(v) for k, v in self.by_head.items()}
        g.int_val = dict(self.int_val)
        g.class_val = dict(self.class_val)
        g.pf_parent = dict(self.pf_parent)
        g.pf_reason = dict(self.pf_reason)
        g.pending = list(self.pending)
        g.fold_todo = list(self.fold_todo)
        g.conflict = self.conflict
        return g

    # -- construction --------------------------------------------------------

    def find(self, t: int) -> int:
        p = self.parent
        while p[t] != t:
            p[t] = p[p[t]]
            t = p[t]
        return t

    def lookup(self, sym: str, args: tuple[int, ...]) -> int | None:
        return self.hashcons.get((sym, args))

    def new_term(self, sym: str, args: tuple[int, ...],
                 origins: frozenset = EMPTY, int_value: int | None = None) -> int:
        t = len(self.syms)
        hit = self.hashcons.setdefault((sym, args), t)
        if hit != t:
            return hit
        self.syms.append(sym)
        self.targs.append(args)
        self.origins.append(origins)
        self.parent.append(t)
        self.rank.append(0)
        self.canon[t] = t
        self.members[t] = [t]
        self.uses[t] = []
        same_head = self.by_head.get(sym)
        if same_head is None:
            self.by_head[sym] = [t]
        else:
            same_head.append(t)
        if int_value is not None:
            self.int_val[t] = int_value
            self.class_val[t] = (int_value, t)
        if args:
            find = self.find
            roots = tuple([find(a) for a in args])
            uses = self.uses
            for root in roots:
                uses[root].append(t)
            prev = self.sig.setdefault((sym, roots), t)
            if prev != t and find(prev) != t:
                self.pending.append((t, prev, ("cong", t, prev)))
        if sym in FOLDABLE:
            self.fold_todo.append(t)
        return t

    def int_term(self, value: int, origins: frozenset = EMPTY) -> int:
        return self.new_term(f"#i{value}", (), origins, int_value=value)

    # -- congruence closure ----------------------------------------------------

    def merge(self, a: int, b: int, origins: frozenset):
        self.pending.append((a, b, ("eq", origins)))

    def process(self):
        while (self.pending or self.fold_todo) and self.conflict is None:
            if self.pending:
                a, b, reason = self.pending.pop()
                self._union(a, b, reason)
            else:
                t = self.fold_todo.pop()
                self._try_fold(t)

    def _union(self, a: int, b: int, reason: tuple):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # proof forest: record the term-level edge before relinking
        self._pf_link(a, b, reason)
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        elif self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        # rb joins ra
        self.parent[rb] = ra
        self.canon[ra] = min(self.canon[ra], self.canon.pop(rb))
        self.members[ra].extend(self.members.pop(rb))
        va = self.class_val.get(ra)
        vb = self.class_val.pop(rb, None)
        if vb is not None:
            if va is None:
                self.class_val[ra] = vb
                for parent_t in self.uses[ra]:
                    if self.syms[parent_t] in FOLDABLE:
                        self.fold_todo.append(parent_t)
            elif va[0] != vb[0]:
                self.conflict = self.explain(va[1], vb[1])
                return
        moved = self.uses.pop(rb)
        for parent_t in moved:
            skey = (self.syms[parent_t],
                    tuple(self.find(x) for x in self.targs[parent_t]))
            prev = self.sig.get(skey)
            if prev is None:
                self.sig[skey] = parent_t
            elif self.find(prev) != self.find(parent_t):
                self.pending.append((parent_t, prev, ("cong", parent_t, prev)))
        self.uses[ra].extend(moved)

    def _pf_link(self, a: int, b: int, reason: tuple):
        # reverse a's path to its proof root, then point a at b
        path = []
        node = a
        while node in self.pf_parent:
            path.append((node, self.pf_parent[node], self.pf_reason[node]))
            node = self.pf_parent[node]
        for child, par, r in reversed(path):
            self.pf_parent[par] = child
            self.pf_reason[par] = r
        self.pf_parent.pop(a, None)
        self.pf_reason.pop(a, None)
        self.pf_parent[a] = b
        self.pf_reason[a] = reason

    def _try_fold(self, t: int):
        if self.find(t) in self.class_val:
            return
        vals = []
        lits = []
        for a in self.targs[t]:
            got = self.class_val.get(self.find(a))
            if got is None:
                return
            vals.append(got[0])
            lits.append((a, got[1]))
        result = FOLDABLE[self.syms[t]](*vals)
        if result is None:
            return
        origins = EMPTY
        for arg, lit in lits:
            origins |= self.explain(arg, lit)
        lit_t = self.int_term(result)
        self.pending.append((t, lit_t, ("eq", origins)))

    # -- explanations ------------------------------------------------------------

    def explain(self, a: int, b: int) -> frozenset:
        """Origins of asserted equalities justifying a ≡ b."""
        if a == b:
            return EMPTY
        return self._explain(a, b, {})

    def _explain(self, a: int, b: int, cache: dict) -> frozenset:
        if a == b:
            return EMPTY
        key = (a, b) if a < b else (b, a)
        hit = cache.get(key)
        if hit is not None:
            return hit
        cache[key] = EMPTY  # cycle guard for congruence recursion
        # paths to proof-forest roots
        seen = {a}
        node = a
        while node in self.pf_parent:
            node = self.pf_parent[node]
            seen.add(node)
        lca = b
        while lca not in seen:
            if lca not in self.pf_parent:
                raise AssertionError(f"explain: {a} and {b} not connected")
            lca = self.pf_parent[lca]
        acc: frozenset = EMPTY
        node = a
        while node != lca:
            acc |= self._edge_origins(node, cache)
            node = self.pf_parent[node]
        node = b
        while node != lca:
            acc |= self._edge_origins(node, cache)
            node = self.pf_parent[node]
        cache[key] = acc
        return acc

    def _edge_origins(self, node: int, cache: dict) -> frozenset:
        reason = self.pf_reason[node]
        if reason[0] == "eq":
            return reason[1]
        _, t1, t2 = reason
        acc: frozenset = EMPTY
        for x, y in zip(self.targs[t1], self.targs[t2]):
            acc |= self._explain(x, y, cache)
        return acc
