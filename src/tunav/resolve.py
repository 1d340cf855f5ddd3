"""Name resolution, type checking, monomorphization, broadcast registry and
verification-task ordering.

Generic declarations are monomorphized: every ground type instantiation used
anywhere in the program yields a separate fact instance. Generic proof fns are
verified once at fresh (skolem) sorts; those skolem-typed fact instances stay
private to the defining lemma's own verification.

Resolution never modifies the ASTs it is given: types, callees and absolute
`use` paths live in the resolver's tables and on the monomorphized copies
(`MonoFn.decl`) that vcgen and the engine read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from tunav.errors import CycleError, ResolveError
from tunav.syntax.ast import (
    Assert,
    AssertBy,
    AxiomFn,
    BinOp,
    Binder,
    BoolLit,
    BroadcastGroup,
    BroadcastUse,
    Call,
    ConstDecl,
    Declaration,
    Exists,
    Expr,
    Forall,
    IntLit,
    LemmaCall,
    Let,
    Not,
    Param,
    ProgramAst,
    ProofFn,
    SortDecl,
    SpecFn,
    Stmt,
    Type,
    UseStmt,
    Var,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)

PRELUDE_MODULES = ("prelude::core", "prelude::seq", "prelude::set",
                   "prelude::map", "prelude::multiset")
DEFAULT_GROUP = "prelude::core::group_default"

INT = Type("int")
BOOL = Type("bool")


def carrier(t: Type) -> Type:
    """nat and int share one carrier; nat in argument position erases."""
    if t.name == "nat" and not t.args:
        return INT
    if t.args:
        return Type(t.name, tuple(carrier(a) for a in t.args))
    return t


def mono_symbol(path: str, targs: tuple[Type, ...]) -> str:
    if not targs:
        return path
    return f"{path}<{','.join(t.render() for t in targs)}>"


def is_skolem_sort(t: Type) -> bool:
    return t.name.startswith("!") or any(is_skolem_sort(a) for a in t.args)


@dataclass
class MonoFn:
    symbol: str
    decl_path: str
    targs: tuple[Type, ...]
    kind: str  # "spec" | "proof" | "axiom"
    decl: Declaration
    module: str

    @property
    def skolem(self) -> bool:
        return any(is_skolem_sort(t) for t in self.targs)


@dataclass
class BroadcastRegistry:
    facts: dict[str, str] = field(default_factory=dict)  # fact decl path -> "lemma"|"axiom"
    groups: dict[str, tuple[str, ...]] = field(default_factory=dict)  # flattened
    default_group: str | None = None

    def expand(self, path: str) -> tuple[str, ...]:
        """Fact decl paths imported by naming `path` (a fact or a group)."""
        if path in self.groups:
            return self.groups[path]
        if path in self.facts:
            return (path,)
        raise ResolveError(f"'{path}' is not a broadcastable fact or group")

    def default_facts(self) -> tuple[str, ...]:
        if self.default_group is None:
            return ()
        return self.groups[self.default_group]


@dataclass
class Program:
    asts: list[ProgramAst]
    symbols: dict[str, Declaration]
    decl_module: dict[str, str]
    instances: dict[str, MonoFn]
    instances_of: dict[str, list[str]]
    module_uses: dict[str, list[str]]
    consts: dict[str, Type]
    sorts: dict[str, SortDecl]
    spec_scc: dict[str, tuple[str, ...]]  # mono spec symbol -> SCC members when recursive

    def proof_fns(self) -> list[str]:
        """Proof-fn decl paths in source order (one verification task each)."""
        out = []
        for ast in self.asts:
            for d in ast.declarations:
                if isinstance(d, ProofFn):
                    out.append(f"{ast.module}::{d.name}")
        return out

    def verify_instance(self, decl_path: str) -> MonoFn:
        """The instance actually verified for a proof fn: the monomorphic one,
        or for generics the instance at the fn's own skolem sorts."""
        decl = self.symbols[decl_path]
        own_skolem = tuple(Type(f"!{decl_path}::{tp}")
                           for tp in getattr(decl, "type_params", []))
        sym = mono_symbol(decl_path, own_skolem)
        inst = self.instances.get(sym)
        if inst is None or inst.kind != "proof":
            raise ResolveError(f"no verification instance for {decl_path}")
        return inst


@dataclass
class TaskOrder:
    tasks: list[str]  # proof-fn decl paths, topologically sorted
    layers: list[list[str]]  # parallelizable layers
    deps: dict[str, set[str]]  # task -> tasks it waits on
    fact_task: dict[str, str]  # broadcast lemma decl path -> its task


# ---------------------------------------------------------------------------
# Tarjan SCC (iterative)
# ---------------------------------------------------------------------------


def strongly_connected_components(graph: dict[str, set[str]]) -> list[list[str]]:
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = itertools.count()

    for root in graph:
        if root in index:
            continue
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in graph:
                    continue
                if w not in index:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


# ---------------------------------------------------------------------------
# Type checking
# ---------------------------------------------------------------------------


class _Checker:
    def __init__(self, rs: "_Resolver", module: str, type_params: list[str]):
        self.rs = rs
        self.module = module
        self.type_params = set(type_params)
        self.scopes: list[dict[str, Type]] = [{}]
        self.all_names: set[str] = set()

    def push(self):
        self.scopes.append({})

    def pop(self):
        self.scopes.pop()

    def bind(self, name: str, ty: Type, span, what: str):
        if name in self.all_names:
            raise ResolveError(f"duplicate {what} name '{name}' in function", span)
        self.all_names.add(name)
        self.scopes[-1][name] = ty

    def unbind(self, name: str):
        self.all_names.discard(name)
        self.scopes[-1].pop(name, None)

    def lookup_var(self, name: str) -> Type | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def check_type(self, t: Type, span) -> Type:
        if t.name in ("int", "nat", "bool"):
            if t.args:
                raise ResolveError(f"type {t.name} takes no arguments", span)
            return t
        if t.name in self.type_params:
            if t.args:
                raise ResolveError(f"type variable {t.name} takes no arguments", span)
            return t
        if t.name.startswith("!"):  # skolem sort
            return t
        decl = self.rs.lookup_sort(t.name, self.module)
        if decl is None:
            raise ResolveError(f"unknown type '{t.name}'", span)
        if len(decl.type_params) != len(t.args):
            raise ResolveError(
                f"sort {decl.name} expects {len(decl.type_params)} type argument(s), "
                f"got {len(t.args)}", span)
        full = self.rs.sort_path[t.name] if t.name in self.rs.sort_path else t.name
        return Type(full, tuple(self.check_type(a, span) for a in t.args))

    # -- unification --------------------------------------------------------

    def unify(self, declared: Type, actual: Type, sub: dict[str, Type],
              callee_tps: set[str]) -> bool:
        if declared.name in callee_tps and not declared.args:
            bound = sub.get(declared.name)
            want = carrier(actual)
            if bound is None:
                sub[declared.name] = want
                return True
            return carrier(bound) == want
        if carrier(declared).name != carrier(actual).name and not (
                declared.name in ("int", "nat") and actual.name in ("int", "nat")):
            return False
        if len(declared.args) != len(actual.args):
            return False
        return all(self.unify(d, a, sub, callee_tps)
                   for d, a in zip(declared.args, actual.args))

    # -- expressions ---------------------------------------------------------

    def check_expr(self, e: Expr) -> Type:
        ty = self.infer(e)
        self.rs.types[id(e)] = ty
        return ty

    def infer(self, e: Expr) -> Type:
        if isinstance(e, IntLit):
            return INT
        if isinstance(e, BoolLit):
            return BOOL
        if isinstance(e, Var):
            ty = self.lookup_var(e.name)
            if ty is None:
                const = self.rs.lookup_const(e.name, self.module)
                if const is None:
                    raise ResolveError(f"unbound variable '{e.name}'", e.span)
                path, ty = const
                self.rs.const_refs[id(e)] = path
            return ty
        if isinstance(e, Call):
            return self.check_call(e)
        if isinstance(e, BinOp):
            return self.check_binop(e)
        if isinstance(e, Not):
            self.require(e.arg, BOOL)
            return BOOL
        if isinstance(e, (Forall, Exists)):
            self.push()
            try:
                for b in e.binders:
                    ty = self.check_type(b.ty, e.span)
                    self.bind(b.name, ty, e.span, "binder")
                self.require(e.body, BOOL)
            finally:
                for b in e.binders:
                    self.unbind(b.name)
                self.pop()
            return BOOL
        raise ResolveError(f"cannot type {type(e).__name__}", e.span)

    def require(self, e: Expr, want: Type):
        got = self.check_expr(e)
        if carrier(got) != carrier(want):
            raise ResolveError(
                f"type mismatch: expected {want.render()}, got {got.render()}", e.span)

    def check_call(self, e: Call) -> Type:
        arg_tys = [self.check_expr(a) for a in e.args]
        path, sub = self.rs.resolve_callable(
            e, e.name, self.module, arg_tys, kinds=(SpecFn,), checker=self)
        ret = _subst_type(self.rs.rets[path], sub)
        return carrier(ret) if ret.name == "nat" else ret

    def check_binop(self, e: BinOp) -> Type:
        op = e.op
        if op in ("+", "-", "*", "%"):
            self.require(e.lhs, INT)
            self.require(e.rhs, INT)
            return INT
        if op in ("<", "<=", ">", ">="):
            self.require(e.lhs, INT)
            self.require(e.rhs, INT)
            return BOOL
        if op in ("==", "!="):
            lt = self.check_expr(e.lhs)
            rt = self.check_expr(e.rhs)
            if carrier(lt) != carrier(rt):
                raise ResolveError(
                    f"type mismatch in {op}: {lt.render()} vs {rt.render()}", e.span)
            return BOOL
        if op in ("&&", "||", "==>", "<==>"):
            self.require(e.lhs, BOOL)
            self.require(e.rhs, BOOL)
            return BOOL
        raise ResolveError(f"unknown operator {op}", e.span)

    # -- statements ----------------------------------------------------------

    def check_stmts(self, stmts: list[Stmt]):
        self.push()
        try:
            for s in stmts:
                self.check_stmt(s)
        finally:
            for s in stmts:
                if isinstance(s, Let):
                    self.unbind(s.name)
            self.pop()

    def check_stmt(self, s: Stmt):
        if isinstance(s, Assert):
            self.require(s.expr, BOOL)
        elif isinstance(s, AssertBy):
            self.check_stmts(s.body)
            self.require(s.expr, BOOL)
        elif isinstance(s, Let):
            ty = self.check_expr(s.expr)
            self.bind(s.name, ty, s.span, "let")
        elif isinstance(s, LemmaCall):
            arg_tys = [self.check_expr(a) for a in s.args]
            self.rs.resolve_callable(s, s.path, self.module, arg_tys,
                                     kinds=(ProofFn, AxiomFn), checker=self)
        elif isinstance(s, UseStmt):
            self.rs.use_paths[id(s)] = [self.rs.resolve_import(p, self.module, s.span)
                                        for p in s.paths]
        else:
            raise ResolveError(f"cannot check {type(s).__name__}", s.span)


def _subst_type(t: Type, sub: dict[str, Type]) -> Type:
    if not t.args:
        return sub.get(t.name, t)
    return Type(t.name, tuple(_subst_type(a, sub) for a in t.args))


# ---------------------------------------------------------------------------
# Resolver
# ---------------------------------------------------------------------------


class _Resolver:
    def __init__(self, asts: list[ProgramAst]):
        self.asts = asts
        self.symbols: dict[str, Declaration] = {}
        self.decl_module: dict[str, str] = {}
        self.sort_path: dict[str, str] = {}  # short sort name -> full path
        self.module_names: list[str] = []
        self.instances: dict[str, MonoFn] = {}
        self.instances_of: dict[str, list[str]] = {}
        self.queue: list[tuple[str, tuple[Type, ...]]] = []
        self.module_uses: dict[str, list[str]] = {}
        self.consts: dict[str, Type] = {}
        self.sorts: dict[str, SortDecl] = {}
        # Fully qualified signatures by decl path, resolved before any body.
        self.params: dict[str, list[Param]] = {}
        self.rets: dict[str, Type] = {}  # spec fns only
        # What checking learns about the input nodes, keyed by id(node): the
        # input ASTs are never modified; instantiation copies these onto the
        # MonoFn trees.
        self.types: dict[int, Type] = {}  # expression -> type
        self.const_refs: dict[int, str] = {}  # Var -> const path
        self.callees: dict[int, tuple[str, tuple[Type, ...]]] = {}  # Call/LemmaCall
        self.use_paths: dict[int, list[str]] = {}  # UseStmt -> absolute paths

    # -- symbol table --------------------------------------------------------

    def collect(self):
        for ast in self.asts:
            if ast.module in self.module_names:
                raise ResolveError(f"duplicate module '{ast.module}' ({ast.path})")
            self.module_names.append(ast.module)
        for ast in self.asts:
            self.module_uses[ast.module] = []
            for d in ast.declarations:
                if isinstance(d, BroadcastUse):
                    continue
                path = f"{ast.module}::{d.name}"
                if path in self.symbols:
                    raise ResolveError(f"duplicate definition of '{path}'", d.span)
                self.symbols[path] = d
                self.decl_module[path] = ast.module
                if isinstance(d, SortDecl):
                    self.sorts[path] = d
                    # short-name lookup must stay unambiguous
                    if d.name in self.sort_path and self.sort_path[d.name] != path:
                        raise ResolveError(f"ambiguous sort name '{d.name}'", d.span)
                    self.sort_path[d.name] = path
                    self.sort_path[path] = path

    def resolve_signatures(self):
        """Qualify every fn's parameter and return types and every const's
        type, so a body may use a declaration that comes later in the source."""
        for ast in self.asts:
            for d in ast.declarations:
                path = f"{ast.module}::{d.name}"
                if isinstance(d, ConstDecl):
                    self.consts[path] = _Checker(self, ast.module, []).check_type(
                        d.ty, d.span)
                elif isinstance(d, (SpecFn, ProofFn, AxiomFn)):
                    ck = _Checker(self, ast.module, d.type_params)
                    self.params[path] = [Param(p.name, ck.check_type(p.ty, d.span))
                                         for p in d.params]
                    if isinstance(d, SpecFn):
                        self.rets[path] = ck.check_type(d.ret, d.span)

    def lookup_sort(self, name: str, module: str) -> SortDecl | None:
        for cand in (f"{module}::{name}", name, self.sort_path.get(name)):
            if cand and cand in self.sorts:
                return self.sorts[cand]
        return None

    def lookup_const(self, name: str, module: str) -> tuple[str, Type] | None:
        for cand in [f"{module}::{name}", name] + [f"{m}::{name}" for m in PRELUDE_MODULES]:
            if cand in self.consts:
                return cand, self.consts[cand]
        return None

    def candidate_paths(self, name: str, module: str) -> list[str]:
        if "::" in name:
            return [name] if name in self.symbols else []
        search = [module] + [p for p in PRELUDE_MODULES if p in self.module_names] \
            + [m for m in self.module_names
               if m != module and m not in PRELUDE_MODULES]
        out = []
        for m in search:
            path = f"{m}::{name}"
            if path in self.symbols and path not in out:
                out.append(path)
        return out

    def resolve_callable(self, node: Call | LemmaCall, name: str, module: str,
                         arg_tys: list[Type], kinds, checker: _Checker):
        """Resolve the callee of `node` by name and argument types; records
        its path and type arguments and returns `(path, substitution)`."""
        matches = []
        for path in self.candidate_paths(name, module):
            decl = self.symbols[path]
            if not isinstance(decl, kinds):
                continue
            params = self.params[path]
            if len(params) != len(arg_tys):
                continue
            sub: dict[str, Type] = {}
            tps = set(decl.type_params)
            if all(checker.unify(p.ty, a, sub, tps)
                   for p, a in zip(params, arg_tys)):
                matches.append((decl, path, sub))
        if not matches:
            kind_names = "/".join(k.__name__ for k in kinds)
            raise ResolveError(
                f"no matching {kind_names} for '{name}'"
                f"({', '.join(t.render() for t in arg_tys)})", node.span)
        if len(matches) > 1:
            paths = ", ".join(p for _, p, _ in matches)
            raise ResolveError(f"ambiguous call '{name}': candidates {paths}",
                               node.span)
        decl, path, sub = matches[0]
        for tp in decl.type_params:
            if tp not in sub:
                raise ResolveError(
                    f"cannot infer type argument {tp} for '{path}'", node.span)
        self.callees[id(node)] = (path, tuple(sub[tp] for tp in decl.type_params))
        return path, sub

    def resolve_import(self, path: str, module: str, span) -> str:
        for cand in self.candidate_paths(path, module):
            decl = self.symbols[cand]
            if isinstance(decl, BroadcastGroup):
                return cand
            if isinstance(decl, (ProofFn, AxiomFn)):
                if not decl.broadcast:
                    raise ResolveError(f"'{cand}' is not a broadcastable fact", span)
                return cand
        raise ResolveError(f"unresolved broadcast import '{path}'", span)

    # -- declaration checking --------------------------------------------------

    def check_all(self):
        for ast in self.asts:
            for d in ast.declarations:
                self.check_decl(ast.module, d)

    def check_decl(self, module: str, d: Declaration):
        if isinstance(d, BroadcastUse):
            self.module_uses[module].extend(
                self.resolve_import(p, module, d.span) for p in d.paths)
            return
        if isinstance(d, (BroadcastGroup, SortDecl, ConstDecl)):
            return  # groups are checked by build_registry, consts by resolve_signatures
        if not isinstance(d, (SpecFn, ProofFn, AxiomFn)):
            raise ResolveError(f"unsupported declaration {type(d).__name__}", d.span)
        path = f"{module}::{d.name}"
        if isinstance(d, SpecFn) and d.ret.name == "nat" and d.body is not None:
            raise ResolveError(
                "nat return types are only supported on bodiless spec fns", d.span)
        ck = _Checker(self, module, d.type_params)
        for p in self.params[path]:
            ck.bind(p.name, p.ty, d.span, "parameter")
        if isinstance(d, SpecFn):
            if d.body is not None:
                ck.require(d.body, self.rets[path])
            return
        for e in d.requires:
            ck.require(e, BOOL)
        for e in d.ensures:
            ck.require(e, BOOL)
        if isinstance(d, ProofFn):
            ck.check_stmts(d.body)
        self.validate_marks(d)

    def validate_marks(self, d: ProofFn | AxiomFn):
        """`#[trigger]` marks must sit under a quantifier, or in the clauses of
        a broadcast fn (whose parameters are lowered to quantified binders)."""
        exprs = [] if d.broadcast else d.requires + d.ensures
        if isinstance(d, ProofFn):
            exprs += [e for s in walk_stmts(d.body) for e in stmt_exprs(s)]
        for e in exprs:
            marked = [sub for sub in walk_exprs(e) if sub.trigger_mark]
            if not marked:
                continue
            quantified = {id(sub) for q in walk_exprs(e)
                          if isinstance(q, (Forall, Exists)) for sub in walk_exprs(q)}
            for sub in marked:
                if id(sub) not in quantified:
                    raise ResolveError(
                        "misplaced #[trigger]: not inside a quantifier", sub.span)

    # -- monomorphization -------------------------------------------------------

    def demand(self, path: str, targs: tuple[Type, ...]):
        sym = mono_symbol(path, targs)
        if sym not in self.instances:
            self.queue.append((path, targs))

    def instantiate_all(self):
        # seed: every non-generic fn; skolem instances of generic proof fns
        for ast in self.asts:
            for d in ast.declarations:
                if isinstance(d, (SpecFn, ProofFn, AxiomFn)):
                    path = f"{ast.module}::{d.name}"
                    if not d.type_params:
                        self.demand(path, ())
                    elif isinstance(d, ProofFn):
                        sk = tuple(Type(f"!{path}::{tp}") for tp in d.type_params)
                        self.demand(path, sk)
        for _ in range(10):
            self.drain_queue()
            if not self.demand_by_liveness():
                break
            self.drain_queue()
        self.drain_queue()

    def drain_queue(self):
        while self.queue:
            path, targs = self.queue.pop()
            sym = mono_symbol(path, targs)
            if sym in self.instances:
                continue
            decl = self.symbols[path]
            sub = dict(zip(decl.type_params, targs))
            inst_decl = _instantiate_decl(path, decl, sub, self)
            kind = {"SpecFn": "spec", "ProofFn": "proof", "AxiomFn": "axiom"}[
                type(decl).__name__]
            fn = MonoFn(sym, path, targs, kind, inst_decl, self.decl_module[path])
            self.instances[sym] = fn
            self.instances_of.setdefault(path, []).append(sym)

    def live_sorts(self) -> set[Type]:
        live: set[Type] = set()

        def add(t: Type | None):
            if t is None:
                return
            t = carrier(t)
            live.add(t)
            for a in t.args:
                add(a)

        for fn in self.instances.values():
            d = fn.decl
            for p in d.params:
                add(p.ty)
            if isinstance(d, SpecFn):
                add(d.ret)
                exprs = [] if d.body is None else [d.body]
            else:
                exprs = d.requires + d.ensures
                if isinstance(d, ProofFn):
                    exprs += [e for s in walk_stmts(d.body) for e in stmt_exprs(s)]
            for e in exprs:
                for sub in walk_exprs(e):
                    add(sub.ty)
        return live

    def demand_by_liveness(self) -> bool:
        """Demand ground instances of generic broadcast facts whose parameter
        sorts occur in the program (e.g. Seq<int> live => seq lemmas at int)."""
        live = self.live_sorts()
        added = False
        for path, decl in self.symbols.items():
            if not isinstance(decl, (ProofFn, AxiomFn)) or not decl.broadcast:
                continue
            if not decl.type_params:
                continue
            for targs in self._liveness_assignments(path, decl, live):
                sym = mono_symbol(path, targs)
                if sym not in self.instances:
                    self.demand(path, targs)
                    added = True
        return added

    # (skolem-typed instances stay private to their owning lemma's context;
    # the filtering happens at context assembly, not here)

    def _liveness_assignments(self, path: str, decl,
                              live: set[Type]) -> list[tuple[Type, ...]]:
        tps = list(decl.type_params)
        candidates: dict[str, set[Type]] = {tp: set() for tp in tps}
        anchored: set[str] = set()
        for p in self.params[path]:
            ty = p.ty
            if not ty.args:
                continue
            for s in live:
                sub: dict[str, Type] = {}
                if _match_pattern(ty, s, set(tps), sub):
                    for tp, bound in sub.items():
                        candidates[tp].add(bound)
                        anchored.add(tp)
        if set(tps) - anchored:
            return []  # unanchored type variable: no liveness-driven instances
        pools = [sorted(candidates[tp], key=lambda t: t.render()) for tp in tps]
        return [tuple(combo) for combo in itertools.islice(
            itertools.product(*pools), 200)]

    # -- registry / groups -------------------------------------------------------

    def build_registry(self) -> BroadcastRegistry:
        reg = BroadcastRegistry()
        for path, decl in self.symbols.items():
            if isinstance(decl, (ProofFn, AxiomFn)) and decl.broadcast:
                reg.facts[path] = "lemma" if isinstance(decl, ProofFn) else "axiom"
        flattened: dict[str, tuple[str, ...]] = {}
        visiting: list[str] = []

        def flatten(gpath: str) -> tuple[str, ...]:
            if gpath in flattened:
                return flattened[gpath]
            if gpath in visiting:
                cyc = visiting[visiting.index(gpath):]
                raise ResolveError(
                    f"cyclic broadcast group membership: {' -> '.join(cyc + [gpath])}")
            visiting.append(gpath)
            decl = self.symbols[gpath]
            members: list[str] = []
            module = self.decl_module[gpath]
            for m in decl.members:
                resolved = self.resolve_import(m, module, decl.span)
                target = self.symbols[resolved]
                if isinstance(target, BroadcastGroup):
                    for f in flatten(resolved):
                        if f not in members:
                            members.append(f)
                else:
                    if resolved not in members:
                        members.append(resolved)
            visiting.pop()
            flattened[gpath] = tuple(members)
            return flattened[gpath]

        for path, decl in self.symbols.items():
            if isinstance(decl, BroadcastGroup):
                flatten(path)
        reg.groups = flattened
        if DEFAULT_GROUP in flattened:
            reg.default_group = DEFAULT_GROUP
            non_axioms = [f for f in flattened[DEFAULT_GROUP]
                          if reg.facts.get(f) != "axiom"]
            if non_axioms:
                raise ResolveError(
                    f"default broadcast group may contain only axioms, found: "
                    f"{', '.join(non_axioms)}")
        return reg

    # -- recursion checks -----------------------------------------------------------

    def spec_sccs(self) -> dict[str, tuple[str, ...]]:
        graph: dict[str, set[str]] = {}
        for sym, fn in self.instances.items():
            if fn.kind != "spec":
                continue
            body = fn.decl.body
            graph[sym] = set()
            if body is None:
                continue
            for sub in walk_exprs(body):
                if isinstance(sub, Call) and sub.resolved in self.instances:
                    callee = self.instances[sub.resolved]
                    if callee.kind == "spec" and callee.decl.body is not None:
                        graph[sym].add(sub.resolved)
        result: dict[str, tuple[str, ...]] = {}
        for comp in strongly_connected_components(graph):
            recursive = len(comp) > 1 or comp[0] in graph.get(comp[0], set())
            if recursive:
                for sym in comp:
                    result[sym] = tuple(comp)
        return result

    def reject_recursive_proof_fns(self):
        # edges to axioms leave the graph, which only has proof fns as nodes
        graph = {path: {self.callees[id(s)][0] for s in walk_stmts(decl.body)
                        if isinstance(s, LemmaCall)}
                 for path, decl in self.symbols.items() if isinstance(decl, ProofFn)}
        for comp in strongly_connected_components(graph):
            if len(comp) > 1 or comp[0] in graph.get(comp[0], set()):
                raise ResolveError(
                    f"recursive proof fns are unsupported: {', '.join(sorted(comp))}")


def _match_pattern(pattern: Type, ground: Type, tps: set[str],
                   sub: dict[str, Type]) -> bool:
    if pattern.name in tps and not pattern.args:
        bound = sub.get(pattern.name)
        if bound is None:
            sub[pattern.name] = ground
            return True
        return bound == ground
    if pattern.name != ground.name or len(pattern.args) != len(ground.args):
        return False
    return all(_match_pattern(p, g, tps, sub)
               for p, g in zip(pattern.args, ground.args))


# ---------------------------------------------------------------------------
# Declaration instantiation (deep copy with type substitution)
# ---------------------------------------------------------------------------


def _instantiate_decl(path: str, decl: Declaration, sub: dict[str, Type],
                      rs: _Resolver):
    params = rs.params[path]
    if isinstance(decl, SpecFn):
        return SpecFn(
            decl.span, decl.name, type_params=[],
            params=[Param(p.name, carrier(_subst_type(p.ty, sub))) for p in params],
            ret=_subst_type(rs.rets[path], sub),
            body=None if decl.body is None else _inst_expr(decl.body, sub, rs))
    if isinstance(decl, ProofFn):
        return ProofFn(
            decl.span, decl.name, broadcast=decl.broadcast, type_params=[],
            params=[Param(p.name, _subst_type(p.ty, sub)) for p in params],
            requires=[_inst_expr(e, sub, rs) for e in decl.requires],
            ensures=[_inst_expr(e, sub, rs) for e in decl.ensures],
            body=[_inst_stmt(s, sub, rs) for s in decl.body])
    if isinstance(decl, AxiomFn):
        return AxiomFn(
            decl.span, decl.name, broadcast=decl.broadcast, type_params=[],
            params=[Param(p.name, _subst_type(p.ty, sub)) for p in params],
            requires=[_inst_expr(e, sub, rs) for e in decl.requires],
            ensures=[_inst_expr(e, sub, rs) for e in decl.ensures])
    raise ResolveError(f"cannot instantiate {type(decl).__name__}")


def _inst_expr(e: Expr, sub: dict[str, Type], rs: _Resolver) -> Expr:
    ty = carrier(_subst_type(rs.types[id(e)], sub))
    if isinstance(e, IntLit):
        return IntLit(e.span, value=e.value, ty=ty, trigger_mark=e.trigger_mark)
    if isinstance(e, BoolLit):
        return BoolLit(e.span, value=e.value, ty=ty, trigger_mark=e.trigger_mark)
    if isinstance(e, Var):
        return Var(e.span, name=e.name, resolved=rs.const_refs.get(id(e)), ty=ty,
                   trigger_mark=e.trigger_mark)
    if isinstance(e, Call):
        resolved = _inst_callee(e, sub, rs)  # demanded before the arguments' callees
        return Call(e.span, name=e.name,
                    args=[_inst_expr(a, sub, rs) for a in e.args],
                    method_style=e.method_style, resolved=resolved,
                    ty=ty, trigger_mark=e.trigger_mark)
    if isinstance(e, BinOp):
        return BinOp(e.span, op=e.op, lhs=_inst_expr(e.lhs, sub, rs),
                     rhs=_inst_expr(e.rhs, sub, rs), ty=ty, trigger_mark=e.trigger_mark)
    if isinstance(e, Not):
        return Not(e.span, arg=_inst_expr(e.arg, sub, rs), ty=ty,
                   trigger_mark=e.trigger_mark)
    if isinstance(e, Forall):
        return Forall(e.span,
                      binders=[Binder(b.name, carrier(_subst_type(b.ty, sub))
                                      if b.ty.name != "nat" else b.ty)
                               for b in e.binders],
                      body=_inst_expr(e.body, sub, rs),
                      all_triggers=e.all_triggers, ty=ty, trigger_mark=e.trigger_mark)
    if isinstance(e, Exists):
        return Exists(e.span,
                      binders=[Binder(b.name, carrier(_subst_type(b.ty, sub))
                                      if b.ty.name != "nat" else b.ty)
                               for b in e.binders],
                      body=_inst_expr(e.body, sub, rs), ty=ty,
                      trigger_mark=e.trigger_mark)
    raise ResolveError(f"cannot instantiate expr {type(e).__name__}", e.span)


def _inst_stmt(s: Stmt, sub: dict[str, Type], rs: _Resolver) -> Stmt:
    if isinstance(s, Assert):
        return Assert(s.span, expr=_inst_expr(s.expr, sub, rs))
    if isinstance(s, AssertBy):
        return AssertBy(s.span, expr=_inst_expr(s.expr, sub, rs),
                        body=[_inst_stmt(i, sub, rs) for i in s.body])
    if isinstance(s, Let):
        return Let(s.span, name=s.name, expr=_inst_expr(s.expr, sub, rs))
    if isinstance(s, LemmaCall):
        resolved = _inst_callee(s, sub, rs)
        return LemmaCall(s.span, path=s.path,
                         args=[_inst_expr(a, sub, rs) for a in s.args],
                         resolved=resolved)
    if isinstance(s, UseStmt):
        return UseStmt(s.span, paths=list(rs.use_paths[id(s)]))
    raise ResolveError(f"cannot instantiate stmt {type(s).__name__}", s.span)


def _inst_callee(node: Call | LemmaCall, sub: dict[str, Type], rs: _Resolver) -> str:
    """The mono symbol `node` calls under `sub`; demands that instance."""
    path, targs = rs.callees[id(node)]
    ground = tuple(carrier(_subst_type(t, sub)) for t in targs)
    rs.demand(path, ground)
    return mono_symbol(path, ground)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def resolve_program(asts: list[ProgramAst]) -> tuple[Program, BroadcastRegistry]:
    rs = _Resolver(asts)
    rs.collect()
    rs.resolve_signatures()
    rs.check_all()
    rs.reject_recursive_proof_fns()
    registry = rs.build_registry()
    rs.instantiate_all()
    program = Program(
        asts=asts,
        symbols=rs.symbols,
        decl_module=rs.decl_module,
        instances=rs.instances,
        instances_of={k: sorted(v) for k, v in rs.instances_of.items()},
        module_uses=rs.module_uses,
        consts=rs.consts,
        sorts=rs.sorts,
        spec_scc=rs.spec_sccs(),
    )
    return program, registry


def task_imports(program: Program, registry: BroadcastRegistry, task: str,
                 ambient: tuple[str, ...] = ()) -> list[str]:
    """Fact decl paths imported anywhere in a proof fn's contexts (module,
    function and block level, default group, plus CLI-ambient groups)."""
    module = program.decl_module[task]
    paths: list[str] = []

    def add(import_path: str):
        for f in registry.expand(import_path):
            if f not in paths:
                paths.append(f)

    for f in registry.default_facts():
        if f not in paths:
            paths.append(f)
    if module not in PRELUDE_MODULES:
        # ambient imports apply to the code under study, never to the standard
        # library itself (whose lemmas define the imported groups)
        for a in ambient:
            add(a)
    for p in program.module_uses.get(module, []):
        add(p)
    # the resolver's copy of the fn carries the absolute `use` paths
    for s in walk_stmts(program.verify_instance(task).decl.body):
        if isinstance(s, UseStmt):
            for p in s.paths:
                add(p)
    return paths


def order_tasks(program: Program, registry: BroadcastRegistry,
                ambient: tuple[str, ...] = ()) -> TaskOrder:
    """Topological order in which each broadcast lemma is verified before any
    task that imports it; CycleError on mutual imports."""
    tasks = program.proof_fns()
    fact_task = {path: path for path in tasks
                 if getattr(program.symbols[path], "broadcast", False)}
    deps: dict[str, set[str]] = {t: set() for t in tasks}
    for t in tasks:
        for fact in task_imports(program, registry, t, ambient):
            if fact in fact_task:
                deps[t].add(fact_task[fact])

    graph = {t: set(d) for t, d in deps.items()}
    for comp in strongly_connected_components(graph):
        if len(comp) > 1 or comp[0] in graph.get(comp[0], set()):
            raise CycleError("cyclic broadcast imports", comp)

    order_index = {t: i for i, t in enumerate(tasks)}
    layers: list[list[str]] = []
    placed: set[str] = set()
    remaining = list(tasks)
    ordered: list[str] = []
    while remaining:
        layer = [t for t in remaining if deps[t] <= placed]
        layer.sort(key=order_index.__getitem__)
        layers.append(layer)
        placed.update(layer)
        ordered.extend(layer)
        remaining = [t for t in remaining if t not in placed]
    return TaskOrder(ordered, layers, deps, fact_task)
