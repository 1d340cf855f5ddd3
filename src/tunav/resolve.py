"""Name resolution, type checking, monomorphization, broadcast registry,
each task's import plan and verification-task ordering.

`entry_imports` and `task_imports` are the one statement of what a proof fn
imports (default group, ambient paths, module and body `broadcast use`): task
order, vcgen's fact contexts and the driver's usage reports all read them.
Sort, const and callee names are all looked up over the same candidate
modules (`candidate_paths`): a module's own declaration wins, then the
prelude's, then other user modules', and names used inside a prelude module
resolve within the prelude only.

Generic declarations are monomorphized: every ground type instantiation used
anywhere in the program yields a separate fact instance. Types match by
carrier (`unify`, for calls and liveness alike), so a `nat` type argument
matches `int`. Generic proof fns are verified once at fresh (skolem) sorts;
those skolem-typed fact instances stay private to the defining lemma's own
verification.

Resolution never modifies the ASTs it is given: types, callees and absolute
`use` paths live in the resolver's tables and on the monomorphized copies
(`MonoFn.decl`) that vcgen and the engine read.

Resolves that share a `ResolveMemo` (the runs of one minimizer pass) do each
piece of work once: signatures and the registry are resolved once, a
declaration object is checked once, an instance symbol is rendered once, and
an instance is copied once per declaration object, recording the symbols it
demands. A resolve is then a reachability pass over those demand edges from
the program's roots, in a fresh resolve's order, and a semi-naive liveness
fixpoint whose rounds match only the newly live sorts. So `Program.instances`
and its order equal those of a fresh resolve. The memo serves only programs
whose modules and declaration interfaces equal those of the first program it
resolved; any other program is resolved afresh.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from tunav.errors import CycleError, ResolveError
from tunav.prelude import PRELUDE_FILES
from tunav.syntax.ast import (
    BINARY_OPS,
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

PRELUDE_MODULES = tuple(module for _, module in PRELUDE_FILES)
DEFAULT_GROUP = "prelude::core::group_default"

INT = Type("int")
BOOL = Type("bool")

# Liveness stops after this many rounds and takes at most this many type argument
# combinations of a fact per round; `Program.liveness_caps` names what they cut.
LIVENESS_ROUNDS = 10
LIVENESS_COMBINATIONS = 200


def carrier(t: Type) -> Type:
    """nat and int share one carrier; nat in argument position erases. A
    type without nat is its own carrier."""
    if not t.args:
        return INT if t.name == "nat" else t
    args = tuple(map(carrier, t.args))
    return t if args == t.args else Type(t.name, args)


def unify(pattern: Type, actual: Type, sub: dict[str, Type], tps) -> bool:
    """Whether `pattern`, whose type variables are `tps`, matches `actual` up
    to carriers (`nat` matches `int`); extends `sub` with the carrier each
    variable stands for."""
    if pattern.name in tps and not pattern.args:
        bound = sub.get(pattern.name)
        if bound is None:
            sub[pattern.name] = carrier(actual)
            return True
        return bound == carrier(actual)
    # compare carrier names without building carrier Types
    if (("int" if pattern.name == "nat" else pattern.name)
            != ("int" if actual.name == "nat" else actual.name)
            or len(pattern.args) != len(actual.args)):
        return False
    return all(unify(p, a, sub, tps) for p, a in zip(pattern.args, actual.args))


def mono_symbol(path: str, targs: tuple[Type, ...]) -> str:
    if not targs:
        return path
    return f"{path}<{','.join(t.render() for t in targs)}>"


def mentions_sort(t: Type, prefix: str) -> bool:
    """Whether the name of `t` or of any type argument within it starts with
    `prefix`."""
    return t.name.startswith(prefix) or any(mentions_sort(a, prefix) for a in t.args)


@dataclass
class MonoFn:
    symbol: str
    decl_path: str
    targs: tuple[Type, ...]
    kind: str  # "spec" | "proof" | "axiom"
    decl: Declaration
    module: str
    # the absolute paths of the body's `broadcast use` statements, in
    # `walk_stmts` order (a proof fn's; empty otherwise)
    uses: tuple[str, ...] = ()

    @property
    def skolem(self) -> bool:
        return any(mentions_sort(t, "!") for t in self.targs)


_KINDS = {SpecFn: "spec", ProofFn: "proof", AxiomFn: "axiom"}


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


@dataclass
class Program:
    asts: list[ProgramAst]
    symbols: dict[str, Declaration]
    decl_module: dict[str, str]
    instances: dict[str, MonoFn]
    instances_of: dict[str, list[str]]
    module_uses: dict[str, list[str]]
    spec_scc: dict[str, tuple[str, ...]]  # mono spec symbol -> SCC members when recursive
    # proof-fn decl path -> symbol of its verified instance, in source order
    task_symbols: dict[str, str]
    # "rounds" | "combinations" -> the facts whose instances that cap cut short
    liveness_caps: dict[str, list[str]]

    def proof_fns(self) -> list[str]:
        """Proof-fn decl paths in source order (one verification task each)."""
        return list(self.task_symbols)

    def verify_instance(self, decl_path: str) -> MonoFn:
        """The instance actually verified for a proof fn."""
        inst = self.instances.get(self.task_symbols.get(decl_path))
        if inst is None:
            raise ResolveError(f"no verification instance for {decl_path}")
        return inst


@dataclass
class TaskOrder:
    tasks: list[str]  # proof-fn decl paths, topologically sorted
    layers: list[list[str]]  # parallelizable layers
    deps: dict[str, set[str]]  # task -> tasks it waits on


def _interface(d: Declaration) -> tuple:
    """What resolving the other declarations reads of `d`: its kind, name
    and signature, or a group's members."""
    return (type(d), d.name, getattr(d, "type_params", None),
            getattr(d, "params", None), getattr(d, "ret", None),
            getattr(d, "broadcast", None), getattr(d, "ty", None),
            getattr(d, "members", None))


class ResolveMemo:
    """Resolution work shared by the resolves of programs that differ only
    inside declarations (see the module docstring); its tables are keyed by
    what those programs share: paths, symbols, sorts and node identities."""

    def __init__(self):
        self.interfaces: tuple | None = None  # of the first program resolved
        # every declaration seen, so that the ids keying these tables stay
        # unique while the memo lives
        self.decls: dict[int, Declaration] = {}
        self.checked: set[int] = set()  # ids of declarations checked
        # read off the interfaces once: `resolve_signatures`, the registry
        self.signatures: tuple | None = None
        self.registry: BroadcastRegistry | None = None
        # ("sort" | "const", name, module) -> the path it names there, or None
        self.found: dict[tuple[str, str, str], str | None] = {}
        # (path, type args) <-> instance symbol, each rendered once
        self.interned: dict[tuple[str, tuple[Type, ...]], str] = {}
        self.keys: dict[str, tuple[str, tuple[Type, ...]]] = {}
        # one object per sort mentioned, so that sets of sorts match by identity
        self.canonical: dict[Type, Type] = {}
        # (symbol, id(decl)) -> (the instance, the symbols it demands in
        # order, the sorts it mentions)
        self.instances: dict[tuple[str, int],
                             tuple[MonoFn, tuple[str, ...], frozenset[Type]]] = {}
        # live sort -> what it binds (`_Resolver.matches`)
        self.matches: dict[Type, tuple[tuple[int, int, Type], ...]] = {}
        # What checking learns about the input nodes, keyed by id(node), which
        # instantiation copies onto the MonoFn trees: the inputs stay as given.
        self.types: dict[int, Type] = {}  # expression -> type
        self.const_refs: dict[int, str] = {}  # Var -> const path
        self.callees: dict[int, tuple[str, tuple[Type, ...]]] = {}  # Call/LemmaCall
        self.binder_types: dict[int, list[Type]] = {}  # Forall/Exists -> binder types
        self.use_paths: dict[int, list[str]] = {}  # UseStmt -> absolute paths

    def symbol(self, path: str, targs: tuple[Type, ...]) -> str:
        """The symbol of the instance of `path` at `targs`."""
        key = (path, targs)
        sym = self.interned.get(key)
        if sym is None:
            sym = self.interned[key] = mono_symbol(path, targs)
            self.keys[sym] = key
        return sym

    def admits(self, asts: list[ProgramAst]) -> bool:
        """Whether `asts` has the modules and declaration interfaces of the
        first program this memo saw; if so, its declarations are kept."""
        shape = tuple((a.module, tuple(map(_interface, a.declarations)))
                      for a in asts)
        if self.interfaces is None:
            self.interfaces = shape
        if shape != self.interfaces:
            return False
        for a in asts:
            for d in a.declarations:
                self.decls.setdefault(id(d), d)
        return True


# ---------------------------------------------------------------------------
# Tarjan SCC (iterative)
# ---------------------------------------------------------------------------


def cyclic_components(graph: dict[str, set[str]]) -> list[list[str]]:
    """The strongly connected components of `graph` that contain a cycle
    (two or more nodes, or one with an edge to itself), each sorted. A node
    without edges is on no cycle and lowers no low link: the search skips it."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    for root, edges in graph.items():
        if root in index or not edges:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(sorted(edges)))]
        while work:
            v, it = work[-1]
            for w in it:
                if not graph.get(w):
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:  # every successor of v is done
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    on_stack.difference_update(comp)
                    if len(comp) > 1 or v in graph[v]:
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
        # the parameters, binders and lets in scope: a name is never bound
        # twice at once, so one table serves every scope
        self.vars: dict[str, Type] = {}
        self.marked = False  # whether a checked expression has a `#[trigger]`

    def bind(self, name: str, ty: Type, span, what: str):
        if name in self.vars:
            raise ResolveError(f"duplicate {what} name '{name}' in function", span)
        self.vars[name] = ty

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
        path = self.rs.lookup(self.rs.sorts, "sort", t.name, self.module, span)
        if path is None:
            raise ResolveError(f"unknown type '{t.name}'", span)
        decl = self.rs.sorts[path]
        if len(decl.type_params) != len(t.args):
            raise ResolveError(
                f"sort {decl.name} expects {len(decl.type_params)} type argument(s), "
                f"got {len(t.args)}", span)
        return Type(path, tuple(self.check_type(a, span) for a in t.args))

    # -- expressions ---------------------------------------------------------

    def check_expr(self, e: Expr) -> Type:
        if e.trigger_mark:
            self.marked = True
        ty = self.infer(e)
        self.rs.types[id(e)] = ty
        return ty

    def infer(self, e: Expr) -> Type:
        # the node kinds by how often they occur
        if isinstance(e, Var):
            ty = self.vars.get(e.name)
            if ty is not None:
                self.rs.const_refs.pop(id(e), None)
                return ty
            path = self.rs.lookup(self.rs.consts, "const", e.name, self.module, e.span)
            if path is None:
                raise ResolveError(f"unbound variable '{e.name}'", e.span)
            self.rs.const_refs[id(e)] = path
            return self.rs.consts[path]
        if isinstance(e, BinOp):
            return self.check_binop(e)
        if isinstance(e, Call):
            return self.check_call(e)
        if isinstance(e, IntLit):
            return INT
        if isinstance(e, BoolLit):
            return BOOL
        if isinstance(e, Not):
            self.require(e.arg, BOOL)
            return BOOL
        if isinstance(e, (Forall, Exists)):
            tys = [self.check_type(b.ty, e.span) for b in e.binders]
            self.rs.binder_types[id(e)] = tys
            for b, ty in zip(e.binders, tys):
                self.bind(b.name, ty, e.span, "binder")
            self.require(e.body, BOOL)
            for b in e.binders:
                del self.vars[b.name]
            return BOOL
        raise ResolveError(f"cannot type {type(e).__name__}", e.span)

    def require(self, e: Expr, want: Type):
        got = self.check_expr(e)
        if got is not want and carrier(got) != carrier(want):
            raise ResolveError(
                f"type mismatch: expected {want.render()}, got {got.render()}", e.span)

    def check_call(self, e: Call) -> Type:
        arg_tys = [self.check_expr(a) for a in e.args]
        path, sub = self.rs.resolve_callable(e, e.name, self.module, arg_tys,
                                             kinds=(SpecFn,))
        ret = _subst_type(self.rs.rets[path], sub)
        return carrier(ret) if ret.name == "nat" else ret

    def check_binop(self, e: BinOp) -> Type:
        op = e.op
        if op in ("==", "!="):
            lt = self.check_expr(e.lhs)
            rt = self.check_expr(e.rhs)
            if carrier(lt) != carrier(rt):
                raise ResolveError(
                    f"type mismatch in {op}: {lt.render()} vs {rt.render()}", e.span)
            return BOOL
        if op not in BINARY_OPS:
            raise ResolveError(f"unknown operator {op}", e.span)
        operand = BOOL if op in ("&&", "||", "==>", "<==>") else INT
        self.require(e.lhs, operand)
        self.require(e.rhs, operand)
        return INT if op in ("+", "-", "*", "%") else BOOL

    # -- statements ----------------------------------------------------------

    def check_stmts(self, stmts: list[Stmt]):
        for s in stmts:
            self.check_stmt(s)
        for s in stmts:
            if isinstance(s, Let):
                del self.vars[s.name]

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
                                     kinds=(ProofFn, AxiomFn))
        elif isinstance(s, UseStmt):
            self.rs.use_paths[id(s)] = [self.rs.resolve_import(p, self.module, s.span)
                                        for p in s.paths]
        else:
            raise ResolveError(f"cannot check {type(s).__name__}", s.span)


def _subst_type(t: Type, sub: dict[str, Type]) -> Type:
    """`t` with `sub` applied; `t` itself if that changes nothing."""
    if not t.args:
        return sub.get(t.name, t)
    if not sub:
        return t
    args = tuple(_subst_type(a, sub) for a in t.args)
    return t if args == t.args else Type(t.name, args)


# ---------------------------------------------------------------------------
# Resolver
# ---------------------------------------------------------------------------


class _Resolver:
    def __init__(self, asts: list[ProgramAst], memo: ResolveMemo):
        self.asts = asts
        self.memo = memo
        self.symbols: dict[str, Declaration] = {}
        self.decl_module: dict[str, str] = {}
        self.module_names: list[str] = []
        self.instances: dict[str, MonoFn] = {}
        self.instances_of: dict[str, list[str]] = {}
        self.demands: dict[str, tuple[str, ...]] = {}  # instance -> what it demands
        self.queue: list[str] = []  # instance symbols
        # what the instance copy being made demands and the sorts it mentions
        self.demanded: list[str] = []
        self.mentioned: set[Type] = set()
        self.live: set[Type] = set()  # sorts the instances mention
        self.fresh: set[Type] = set()  # those live since the last liveness round
        # per generic broadcast fact and type param, the sorts liveness bound
        self.candidates: list[list[set[Type]]] = []
        self.liveness_caps: dict[str, list[str]] = {}
        self.module_uses: dict[str, list[str]] = {}
        self.sorts: dict[str, SortDecl] = {}
        # (name, module) -> `candidate_paths`; the symbols are fixed per resolve
        self.candidates_of: dict[tuple[str, str], tuple[str, ...]] = {}
        # (name, module, kinds, *argument types) -> `callee`
        self.calls: dict[tuple, tuple[str, dict[str, Type], tuple[Type, ...]]] = {}
        # the copy being made: checked type -> its substituted carrier
        self.copied: dict[Type, Type] = {}
        # the memo's name lookups and what checking learns about input nodes
        self.found, self.types, self.callees = memo.found, memo.types, memo.callees
        self.const_refs, self.binder_types = memo.const_refs, memo.binder_types
        self.use_paths = memo.use_paths

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

    def resolve_signatures(self):
        """Read off the interfaces, once per memo: qualified const, parameter
        and spec fn return types, so a body may use a declaration that comes
        later in the source; the `roots` (every non-generic fn, and each
        generic proof fn at its own skolem sorts) and each proof fn's; and
        the generic broadcast facts with the parameter types liveness matches."""
        if self.memo.signatures is None:
            consts, params, rets, roots, tasks, facts = {}, {}, {}, [], {}, []
            for ast in self.asts:
                for d in ast.declarations:
                    path = f"{ast.module}::{d.name}"
                    ck = _Checker(self, ast.module, getattr(d, "type_params", []))
                    if isinstance(d, ConstDecl):
                        consts[path] = ck.check_type(d.ty, d.span)
                    if not isinstance(d, (SpecFn, ProofFn, AxiomFn)):
                        continue
                    params[path] = [Param(p.name, ck.check_type(p.ty, d.span))
                                    for p in d.params]
                    if isinstance(d, SpecFn):
                        rets[path] = ck.check_type(d.ret, d.span)
                    if not d.type_params or isinstance(d, ProofFn):
                        roots.append(self.memo.symbol(path, tuple(
                            Type(f"!{path}::{tp}") for tp in d.type_params)))
                    if isinstance(d, ProofFn):
                        tasks[path] = roots[-1]
                    if d.type_params and getattr(d, "broadcast", False):
                        facts.append((path, d.type_params,
                                      [p.ty for p in params[path] if p.ty.args]))
            self.memo.signatures = (consts, params, rets, roots, tasks, facts)
        (self.consts, self.params, self.rets, self.roots, self.task_symbols,
         self.generic_facts) = self.memo.signatures

    def lookup(self, table: dict, what: str, name: str, module: str,
               span) -> str | None:
        """The path of the `what` (a sort or a const, keyed by path in
        `table`) that `name` names in `module`, searched like a callee
        (`candidate_paths`): the module's own wins, and prelude modules see
        only the prelude's."""
        key = (what, name, module)
        if key not in self.found:
            paths = [p for p in self.candidate_paths(name, module) if p in table]
            if len(paths) > 1 and paths[0] != f"{module}::{name}":
                raise ResolveError(f"ambiguous {what} name '{name}': candidates "
                                   f"{', '.join(paths)}", span)
            self.found[key] = paths[0] if paths else None
        return self.found[key]

    def candidate_paths(self, name: str, module: str) -> tuple[str, ...]:
        key = (name, module)
        if key not in self.candidates_of:
            search = [module] + [p for p in PRELUDE_MODULES if p in self.module_names]
            if module not in PRELUDE_MODULES:
                # the prelude names only its own declarations
                search += [m for m in self.module_names
                           if m != module and m not in PRELUDE_MODULES]
            paths = [name] if "::" in name else [f"{m}::{name}" for m in search]
            self.candidates_of[key] = tuple(dict.fromkeys(
                p for p in paths if p in self.symbols))
        return self.candidates_of[key]

    def resolve_callable(self, node: Call | LemmaCall, name: str, module: str,
                         arg_tys: list[Type], kinds):
        """Resolve the callee of `node` by name and argument types; records
        its path and type arguments and returns `(path, substitution)`. A
        resolved callee is kept per name, module, kinds and argument types."""
        key = (name, module, kinds, *arg_tys)
        got = self.calls.get(key)
        if got is None:
            got = self.calls[key] = self.callee(node, name, module, arg_tys, kinds)
        path, sub, targs = got
        self.callees[id(node)] = (path, targs)
        return path, sub

    def callee(self, node: Call | LemmaCall, name: str, module: str,
               arg_tys: list[Type], kinds) -> tuple[str, dict[str, Type], tuple[Type, ...]]:
        matches = []
        for path in self.candidate_paths(name, module):
            decl = self.symbols[path]
            if not isinstance(decl, kinds):
                continue
            params = self.params[path]
            if len(params) != len(arg_tys):
                continue
            sub: dict[str, Type] = {}
            if all(unify(p.ty, a, sub, decl.type_params)
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
        return path, sub, tuple(sub[tp] for tp in decl.type_params)

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
        if id(d) in self.memo.checked:
            return
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
        else:
            for e in d.requires:
                ck.require(e, BOOL)
            for e in d.ensures:
                ck.require(e, BOOL)
            if isinstance(d, ProofFn):
                ck.check_stmts(d.body)
            if ck.marked:
                self.validate_marks(d)
        self.memo.checked.add(id(d))

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

    def instantiate_all(self):
        self.candidates = [[set() for _ in tps] for _, tps, _ in self.generic_facts]
        self.queue.extend(self.roots)
        for _ in range(LIVENESS_ROUNDS):
            self.drain_queue()
            growing = self.demand_by_liveness()
            if not growing:
                break
        else:
            self.liveness_caps["rounds"] = growing
        self.drain_queue()
        # a fact's bindings only grow, so its last product was its largest
        capped = [fact[0] for fact, pools in zip(self.generic_facts, self.candidates)
                  if math.prod(map(len, pools)) > LIVENESS_COMBINATIONS]
        if capped:
            self.liveness_caps["combinations"] = capped

    def drain_queue(self):
        """Make every queued instance and, depth first, what it demands."""
        instances, queue, made = self.instances, self.queue, self.memo.instances
        while queue:
            sym = queue.pop()
            if sym in instances:
                continue
            path, targs = self.memo.keys[sym]
            decl = self.symbols[path]
            entry = made.get((sym, id(decl)))
            if entry is None:
                # what the copy demands, in order, and the sorts it mentions
                self.demanded, self.mentioned, self.copied = [], set(), {}
                inst = _instantiate_decl(path, decl, dict(zip(decl.type_params, targs)),
                                         self)
                uses = () if not isinstance(inst, ProofFn) else tuple(
                    p for s in walk_stmts(inst.body) if isinstance(s, UseStmt)
                    for p in s.paths)
                entry = made[sym, id(decl)] = (
                    MonoFn(sym, path, targs, _KINDS[type(decl)], inst,
                           self.decl_module[path], uses),
                    tuple(self.demanded), frozenset(self.mentioned))
            fn, demands, sorts = entry
            queue.extend(demands)
            instances[sym] = fn
            self.demands[sym] = demands
            self.instances_of.setdefault(path, []).append(sym)
            self.fresh |= sorts - self.live
            self.live |= sorts

    def mention(self, t: Type) -> Type:
        """Record that the copy being made mentions `t`, by carrier, with all
        its type arguments; returns the carrier."""
        t = carrier(t)
        if t not in self.mentioned:
            t = self.memo.canonical.setdefault(t, t)
            self.mentioned.add(t)
            for a in t.args:
                self.mention(a)
        return t

    def demand_by_liveness(self) -> list[str]:
        """Demand ground instances of generic broadcast facts whose parameter
        sorts occur in the program (e.g. Seq<int> live => seq lemmas at int);
        returns the facts that got new ones. Each fact's type params are
        bound to every sort one of its parameters matches. Only the sorts
        live since the last round are matched: a fact whose bindings did not
        grow has every combination made already."""
        fresh, self.fresh = self.fresh, set()
        grown = set()
        for s in fresh:
            for f, i, bound in self.matches(s):
                pool = self.candidates[f][i]
                if bound not in pool:
                    pool.add(bound)
                    grown.add(f)
        growing = []
        for f in sorted(grown):
            path = self.generic_facts[f][0]
            pools = [sorted(pool, key=Type.render) for pool in self.candidates[f]]
            new = False
            for targs in itertools.islice(itertools.product(*pools),
                                          LIVENESS_COMBINATIONS):
                sym = self.memo.symbol(path, targs)
                if sym not in self.instances:
                    self.queue.append(sym)
                    new = True
            if new:
                growing.append(path)
        return growing

    def matches(self, s: Type) -> tuple[tuple[int, int, Type], ...]:
        """What live sort `s` binds: (generic fact index, type param index,
        sort) for every parameter of a fact that it matches; once per memo."""
        got = self.memo.matches.get(s)
        if got is None:
            pairs, canonical = [], self.memo.canonical
            for f, (_path, tps, patterns) in enumerate(self.generic_facts):
                for pattern in patterns:
                    sub: dict[str, Type] = {}
                    if unify(pattern, s, sub, tps):
                        pairs.extend((f, tps.index(tp), canonical.setdefault(b, b))
                                     for tp, b in sub.items())
            got = self.memo.matches[s] = tuple(pairs)
        return got

    # -- registry / groups -------------------------------------------------------

    def build_registry(self) -> BroadcastRegistry:
        reg = BroadcastRegistry()
        for path, decl in self.symbols.items():
            if isinstance(decl, (ProofFn, AxiomFn)) and decl.broadcast:
                reg.facts[path] = "lemma" if isinstance(decl, ProofFn) else "axiom"
        flattened: dict[str, tuple[str, ...]] = {}
        for path, decl in self.symbols.items():
            if isinstance(decl, BroadcastGroup):
                self.flatten(path, flattened, [])
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

    def flatten(self, gpath: str, flattened: dict[str, tuple[str, ...]],
                visiting: list[str]) -> tuple[str, ...]:
        """The facts group `gpath` imports, in order, each once, kept in
        `flattened`; `visiting` holds the groups being flattened. A method:
        a recursive closure would be a cycle keeping the resolver alive."""
        if gpath in flattened:
            return flattened[gpath]
        if gpath in visiting:
            cyc = visiting[visiting.index(gpath):]
            raise ResolveError(
                f"cyclic broadcast group membership: {' -> '.join(cyc + [gpath])}")
        visiting.append(gpath)
        decl = self.symbols[gpath]
        members: dict[str, None] = {}  # in order, each once
        for m in decl.members:
            got = self.resolve_import(m, self.decl_module[gpath], decl.span)
            members.update(dict.fromkeys(
                self.flatten(got, flattened, visiting)
                if isinstance(self.symbols[got], BroadcastGroup) else (got,)))
        visiting.pop()
        flattened[gpath] = tuple(members)
        return flattened[gpath]

    # -- recursion checks -----------------------------------------------------------

    def spec_sccs(self) -> dict[str, tuple[str, ...]]:
        # a spec fn's demands are the callees of its body
        defined = {sym for sym, fn in self.instances.items()
                   if fn.kind == "spec" and fn.decl.body is not None}
        graph = {sym: defined.intersection(self.demands[sym])
                 for sym, fn in self.instances.items() if fn.kind == "spec"}
        return {sym: tuple(comp) for comp in cyclic_components(graph) for sym in comp}

    def reject_recursive_proof_fns(self):
        # edges to axioms leave the graph, which only has proof fns as nodes
        graph = {path: {self.callees[id(s)][0] for s in walk_stmts(decl.body)
                        if isinstance(s, LemmaCall)}
                 for path, decl in self.symbols.items() if isinstance(decl, ProofFn)}
        cycles = cyclic_components(graph)
        if cycles:
            raise ResolveError(
                f"recursive proof fns are unsupported: {', '.join(cycles[0])}")


# ---------------------------------------------------------------------------
# Declaration instantiation (deep copy with type substitution)
# ---------------------------------------------------------------------------


def _instantiate_decl(path: str, decl: Declaration, sub: dict[str, Type],
                      rs: _Resolver):
    params = [Param(p.name, _subst_type(p.ty, sub)) for p in rs.params[path]]
    for p in params:
        rs.mention(p.ty)
    if isinstance(decl, SpecFn):
        ret = _subst_type(rs.rets[path], sub)
        rs.mention(ret)
        return SpecFn(
            decl.span, decl.name, type_params=[],
            params=[Param(p.name, carrier(p.ty)) for p in params], ret=ret,
            body=None if decl.body is None else _inst_expr(decl.body, sub, rs))
    if isinstance(decl, ProofFn):
        return ProofFn(
            decl.span, decl.name, broadcast=decl.broadcast, type_params=[],
            params=params,
            requires=[_inst_expr(e, sub, rs) for e in decl.requires],
            ensures=[_inst_expr(e, sub, rs) for e in decl.ensures],
            body=[_inst_stmt(s, sub, rs) for s in decl.body])
    if isinstance(decl, AxiomFn):
        return AxiomFn(
            decl.span, decl.name, broadcast=decl.broadcast, type_params=[],
            params=params,
            requires=[_inst_expr(e, sub, rs) for e in decl.requires],
            ensures=[_inst_expr(e, sub, rs) for e in decl.ensures])
    raise ResolveError(f"cannot instantiate {type(decl).__name__}")


def _inst_expr(e: Expr, sub: dict[str, Type], rs: _Resolver) -> Expr:
    checked = rs.types[id(e)]
    ty = rs.copied.get(checked)
    if ty is None:
        ty = rs.copied[checked] = rs.mention(_subst_type(checked, sub))
    # the node kinds by how often they occur
    if isinstance(e, Var):
        return Var(e.span, name=e.name, resolved=rs.const_refs.get(id(e)), ty=ty,
                   trigger_mark=e.trigger_mark)
    if isinstance(e, BinOp):
        return BinOp(e.span, op=e.op, lhs=_inst_expr(e.lhs, sub, rs),
                     rhs=_inst_expr(e.rhs, sub, rs), ty=ty, trigger_mark=e.trigger_mark)
    if isinstance(e, Call):
        resolved = _inst_callee(e, sub, rs)  # demanded before the arguments' callees
        return Call(e.span, name=e.name,
                    args=[_inst_expr(a, sub, rs) for a in e.args],
                    method_style=e.method_style, resolved=resolved,
                    ty=ty, trigger_mark=e.trigger_mark)
    if isinstance(e, IntLit):
        return IntLit(e.span, value=e.value, ty=ty, trigger_mark=e.trigger_mark)
    if isinstance(e, BoolLit):
        return BoolLit(e.span, value=e.value, ty=ty, trigger_mark=e.trigger_mark)
    if isinstance(e, Not):
        return Not(e.span, arg=_inst_expr(e.arg, sub, rs), ty=ty,
                   trigger_mark=e.trigger_mark)
    if isinstance(e, Forall):
        return Forall(e.span, binders=_inst_binders(e, sub, rs),
                      body=_inst_expr(e.body, sub, rs),
                      all_triggers=e.all_triggers, ty=ty, trigger_mark=e.trigger_mark)
    if isinstance(e, Exists):
        return Exists(e.span, binders=_inst_binders(e, sub, rs),
                      body=_inst_expr(e.body, sub, rs), ty=ty,
                      trigger_mark=e.trigger_mark)
    raise ResolveError(f"cannot instantiate expr {type(e).__name__}", e.span)


def _inst_binders(q: Forall | Exists, sub: dict[str, Type],
                  rs: _Resolver) -> list[Binder]:
    """Binders with the qualified types checking gave them, as parameters
    get; nat binders stay nat, so the engine still adds their bound."""
    return [Binder(b.name, t if t.name == "nat" else carrier(_subst_type(t, sub)))
            for b, t in zip(q.binders, rs.binder_types[id(q)])]


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
    """The mono symbol `node` calls under `sub`; records the demand for that
    instance."""
    path, targs = rs.callees[id(node)]
    sym = rs.memo.symbol(path, tuple(carrier(_subst_type(t, sub)) for t in targs))
    rs.demanded.append(sym)
    return sym


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def resolve_program(asts: list[ProgramAst],
                    memo: ResolveMemo | None = None) -> tuple[Program, BroadcastRegistry]:
    """Resolve `asts`. With a `memo`, reuse what it holds from earlier
    resolves of the same declarations, and record what this one does."""
    if memo is None or not memo.admits(asts):
        memo = ResolveMemo()
    rs = _Resolver(asts, memo)
    rs.collect()
    rs.resolve_signatures()
    rs.check_all()
    rs.reject_recursive_proof_fns()
    registry = memo.registry = memo.registry or rs.build_registry()
    rs.instantiate_all()
    program = Program(
        asts=asts,
        symbols=rs.symbols,
        decl_module=rs.decl_module,
        instances=rs.instances,
        instances_of={k: sorted(v) for k, v in rs.instances_of.items()},
        module_uses=rs.module_uses,
        spec_scc=rs.spec_sccs(),
        task_symbols=rs.task_symbols,
        liveness_caps=rs.liveness_caps,
    )
    return program, registry


def entry_imports(program: Program, registry: BroadcastRegistry, task: str,
                  ambient: tuple[str, ...] = (), default: bool = True) -> list[str]:
    """The import paths (facts or groups) in scope when proof fn `task`
    starts, in import order: the default group unless `default` is off, the
    ambient paths, then its module's `broadcast use` paths."""
    module = program.decl_module[task]
    paths: list[str] = []
    if default and registry.default_group:
        paths.append(registry.default_group)
    if module not in PRELUDE_MODULES:
        # ambient imports apply to the code under study, never to the standard
        # library itself (whose lemmas define the imported groups)
        paths.extend(ambient)
    paths.extend(program.module_uses.get(module, []))
    return paths


def task_imports(program: Program, registry: BroadcastRegistry, task: str,
                 ambient: tuple[str, ...] = (), default: bool = True) -> list[str]:
    """Every import path of a proof fn's contexts: `entry_imports`, then the
    `broadcast use` paths of its body in source order, unexpanded."""
    paths = entry_imports(program, registry, task, ambient, default)
    paths.extend(program.verify_instance(task).uses)
    return paths


def order_tasks(program: Program, registry: BroadcastRegistry,
                ambient: tuple[str, ...] = (), default: bool = True) -> TaskOrder:
    """Topological order in which each broadcast lemma is verified before any
    task that imports it (by `task_imports`); CycleError on mutual imports."""
    tasks = program.proof_fns()
    broadcast = {path for path in tasks
                  if getattr(program.symbols[path], "broadcast", False)}
    deps = {t: {f for path in task_imports(program, registry, t, ambient, default)
                for f in registry.expand(path) if f in broadcast} for t in tasks}

    cycles = cyclic_components(deps)
    if cycles:
        raise CycleError("cyclic broadcast imports", cycles[0])

    layers: list[list[str]] = []  # each in source order, as `remaining` is
    placed: set[str] = set()
    remaining = tasks
    while remaining:
        layer = [t for t in remaining if deps[t] <= placed]
        layers.append(layer)
        placed.update(layer)
        remaining = [t for t in remaining if t not in placed]
    return TaskOrder([t for layer in layers for t in layer], layers, deps)
