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
verification: each instance records the proof fns whose skolem sorts its
type arguments mention (`MonoFn.owners`).

Resolution never modifies the ASTs it is given. Checking a declaration
builds its typed tree (`_Checker`): nodes carry their types, callees their
instance symbols, `use` statements their absolute paths. An instance's one
record (`MonoFn`) holds that tree (`MonoFn.decl`, which vcgen and the engine
read), the declaration it was checked from, the symbols it demands (those
of its requires and ensures first, and how many they are), the sorts it
mentions and the facts vcgen lowers from it. A non-generic
declaration's checked record is its instance; only a generic declaration's
instances are copies, made from its record at their type arguments. A
declaration's module is read off its path (`module_of`).

Resolves that share a `ResolveMemo` (the runs of one minimizer pass) do each
piece of work once: signatures and the registry are resolved once, a
declaration object is checked once, an instance symbol is rendered once, and
an instance is made once per declaration object, with the symbols it demands.
A caller's memo also keeps what checking each requires/ensures clause and
each body statement of a user fn produced (`_Checker.part`): a clause or
statement object that comes back in the same scope (the fn's path, the
quantifier depth, and the variables in scope with their types) is not
checked again; a `let` binds a name, so it always is. A memo that resolve
makes for itself keeps none, so a lone resolve pays nothing for it.
A resolve under a memo compares each declaration with the one at its place
in the last program the memo resolved (`ResolveMemo.changes`). If an
interface changed (the modules, a declaration that is not a user fn, or a
fn's kind, name or signature), the program is resolved afresh, under a new
memo.
Otherwise only the changed declarations are checked (`_Resolver.reuse`),
and of them only the clauses and statements the memo has not seen in their
scope, in source order, so a failing check raises a fresh resolve's error. If
each checked tree mentions the sorts of the one it replaces, demands the same
symbols in the order the drain meets them (`_drained`) and, for a spec fn,
has a body if the old one had, the last program's instances, their order,
liveness rounds and spec SCCs stand, and only the changed declarations'
instances are remade. Otherwise the memo's records are drained again from
the roots, in a fresh resolve's order, with a semi-naive liveness fixpoint
whose rounds match only the newly live sorts. Either way every table of the
`Program` equals that of a fresh resolve.

What lives for the process is the prelude's share of that work, in the
prelude store (`PreludeStore`, beside the prelude's parse): each prelude
declaration's checked record and its instances at builtin and prelude sorts.
Every memo starts from the store's records, keyed by prelude declaration
objects, and adds the prelude work it does to them. Whatever mentions a user
declaration or sort stays in the memo and dies with its run or pass.

The facts vcgen lowers from an instance live in its record
(`MonoFn.lowered`), and so exactly as long as the record: for the run, for
the runs that share a memo, or, in the prelude store, for the process. The
store also keeps the results of prelude tasks whose records and context
facts it keeps; only the parent process of a run reads and fills that table
(`driver._verify_tasks`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from tunav.errors import CycleError, ResolveError
from tunav.prelude import PRELUDE_FILES, prelude_store
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
)

PRELUDE_MODULES = tuple(module for _, module in PRELUDE_FILES)
DEFAULT_GROUP = "prelude::core::group_default"

INT = Type("int")
BOOL = Type("bool")

# Liveness stops after this many rounds and takes at most this many type argument
# combinations of a fact per round; `Program.liveness_caps` names what they cut.
LIVENESS_ROUNDS = 10
LIVENESS_COMBINATIONS = 200
# No instance's type arguments nest deeper: a generic fn that calls itself at a
# type built from its own type argument would demand ever deeper instances.
MAX_TYPE_DEPTH = 32


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


def type_depth(t: Type) -> int:
    return 1 + max(map(type_depth, t.args), default=0)


def mono_symbol(path: str, targs: tuple[Type, ...]) -> str:
    """The instance symbol of `path` at `targs`, rendered. A memo renders
    each symbol once (`ResolveMemo.symbol`) and takes the prelude store's
    symbols from the store, so its trees and the store's hold one object per
    symbol, which dictionary lookups match by identity."""
    return f"{path}<{','.join(t.render() for t in targs)}>" if targs else path


def skolem_owners(types: tuple[Type, ...]) -> frozenset[str]:
    """The proof fns whose skolem sorts (`skolem`: `!{path}::{tp}`) `types`
    mention, read off the names, as a type parameter has no `::`."""
    return frozenset().union(*(
        {t.name[1:].rpartition("::")[0]} if t.name.startswith("!")
        else skolem_owners(t.args) for t in types))


def module_of(path: str) -> str:
    """The module of the declaration at `path`: a module name may contain
    `::`, a declaration's name never does."""
    return path.rpartition("::")[0]


# The facts vcgen lowers from an instance (`vcgen.QuantifiedFact`s: a spec
# fn's definitional axioms or a broadcast fn's fact), keyed by (strategy,
# fuel, spec SCC)
Lowered = dict[tuple[str, int, tuple[str, ...] | None], list]


@dataclass
class MonoFn:
    """One instance and all that resolve records of it. Checking a
    declaration makes its record (`_check_decl`): a non-generic
    declaration's is its instance; a generic one's is the template its
    instances copy (`_instantiate_decl`), whose types and callee symbols
    still mention its type parameters."""

    symbol: str
    decl_path: str
    targs: tuple[Type, ...]
    kind: str  # "spec" | "proof" | "axiom"
    decl: Declaration  # the typed tree
    source: Declaration  # the declaration checked, which keys the record by id
    # the symbols it demands, each call's before its arguments': a spec fn's
    # are the callees of its body; a proof or axiom fn's are those of its
    # requires, then its ensures, then its body
    demands: tuple[str, ...]
    # how many of `demands`, from the first, its requires and ensures make
    # (none for a spec fn): vcgen reads a lemma's or a fact's callees off them
    clause_demands: int
    # the sorts it mentions: the carriers of its parameter, return and node
    # types, with their type arguments
    sorts: frozenset[Type]
    # a proof fn's: the absolute paths of the body's `broadcast use`
    # statements, in `walk_stmts` order, and of the fns it calls as lemmas
    uses: tuple[str, ...] = ()
    lemmas: frozenset[str] = frozenset()
    # whether the prelude store keeps this record, and so its lowered facts,
    # for the life of the process
    kept: bool = False
    # the proof fns whose skolem sorts the type arguments mention: only their
    # verifications see this instance (none: every task sees it)
    owners: frozenset[str] = frozenset()
    # the record's one mutable slot, which vcgen fills (`VcgenRun.facts_of`):
    # each list is inserted whole with `setdefault`, so the first writer wins
    lowered: Lowered = field(default_factory=dict, repr=False, compare=False)


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
class TaskOrder:
    tasks: list[str]  # proof-fn decl paths, topologically sorted
    layers: list[list[str]]  # parallelizable layers
    deps: dict[str, set[str]]  # task -> tasks it waits on


@dataclass
class Program:
    symbols: dict[str, Declaration]
    instances: dict[str, MonoFn]
    instances_of: dict[str, list[str]]
    module_uses: dict[str, list[str]]
    spec_scc: dict[str, tuple[str, ...]]  # mono spec symbol -> SCC members when recursive
    # proof-fn decl path -> symbol of its verified instance, in source order
    task_symbols: dict[str, str]
    # "rounds" | "combinations" -> the facts whose instances that cap cut short
    liveness_caps: dict[str, list[str]]
    # ambient -> (registry, `order_tasks`' result): shared with the memo's
    # last program when no proof fn's imports or lemma calls changed
    orders: dict[tuple[str, ...], tuple[BroadcastRegistry, TaskOrder]] = field(
        default_factory=dict, repr=False, compare=False)

    def proof_fns(self) -> list[str]:
        """Proof-fn decl paths in source order (one verification task each)."""
        return list(self.task_symbols)

    def verify_instance(self, decl_path: str) -> MonoFn:
        """The instance actually verified for a proof fn."""
        inst = self.instances.get(self.task_symbols.get(decl_path))
        if inst is None:
            raise ResolveError(f"no verification instance for {decl_path}")
        return inst


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
    what those programs share: paths, symbols, sorts and node identities;
    each record holds its source declaration, so no id is reused while the
    memo lives. A memo starts from the prelude store's records (`adopt`),
    and the resolver adds the prelude work it does to both."""

    def __init__(self, record: bool = True):
        # id(fn declaration) -> its checked record
        self.checked: dict[int, MonoFn] = {}
        # (id(node), fn path, quantifier depth, variables in scope) -> what
        # checking that user clause or statement produced (`_Checker.part`);
        # None in a memo no caller keeps, which records nothing
        self.parts: dict[tuple, _Part] | None = {} if record else None
        # read off the interfaces once: `resolve_signatures`, the registry
        self.signatures: tuple | None = None
        self.registry: BroadcastRegistry | None = None
        # ("sort" | "const", name, module) -> the path it names there, or None
        self.found: dict[tuple[str, str, str], str | None] = {}
        # (path, type args) <-> instance symbol, each rendered once
        self.interned: dict[tuple[str, tuple[Type, ...]], str] = {}
        self.keys: dict[str, tuple[str, tuple[Type, ...]]] = {}
        # one object per sort mentioned, so that sets of sorts match by
        # identity: a minimizer trial unions the memoised sort sets of every
        # instance, and equal but distinct sorts would be compared field by
        # field there
        self.canonical: dict[Type, Type] = {}
        # (symbol, id(decl)) -> the instance
        self.instances: dict[tuple[str, int], MonoFn] = {}
        # live sort -> what it binds (`_Resolver.matches`)
        self.matches: dict[Type, tuple[tuple[int, int, Type], ...]] = {}
        # the prelude store this memo started from, once it has
        self.store: PreludeStore | None = None
        # the last program resolved, (module, declarations) per module, and
        # the program, from which the next is made (`_Resolver.reuse`)
        self.last: tuple[tuple, Program] | None = None

    def adopt(self, store: PreludeStore):
        """Before the memo's first resolve, start from `store`'s records and
        symbols. The records are copied before the keys, so every copied
        record's demanded symbols have theirs (the store inserts keys first).
        The keys are copied in one step, as another thread's run may insert
        into the store meanwhile; their inverse makes `symbol` return the
        store's own symbol objects."""
        self.store = store
        self.checked.update(store.checked)
        self.instances.update(store.instances)
        keys = list(store.keys.items())
        self.keys.update(keys)
        self.interned.update((key, sym) for sym, key in keys)
        self.canonical.update(store.canonical)

    def symbol(self, path: str, targs: tuple[Type, ...]) -> str:
        """The symbol of the instance of `path` at `targs`."""
        key = (path, targs)
        sym = self.interned.get(key)
        if sym is None:
            sym = self.interned[key] = mono_symbol(path, targs)
            self.keys[sym] = key
        return sym

    def changes(self, asts: list[ProgramAst]) -> list[
            tuple[str, Declaration, Declaration]] | None:
        """Each declaration of `asts` that is not the object at its place in
        the last program resolved, in source order, with its path and the
        declaration it replaces; None if there is no last program, or if an
        interface changed: the modules, a module's number of declarations, a
        changed declaration that is not a user fn, or a changed fn's
        `_interface`."""
        if self.last is None or [(a.module, len(a.declarations)) for a in asts] != [
                (module, len(olds)) for module, olds in self.last[0]]:
            return None
        changed = [(f"{a.module}::{d.name}", d, o)
                   for a, (_, olds) in zip(asts, self.last[0])
                   for d, o in zip(a.declarations, olds) if d is not o]
        if any(module_of(path) in PRELUDE_MODULES or type(d) not in _KINDS
               or _interface(d) != _interface(o) for path, d, o in changed):
            return None
        return changed


def skolem(path: str, tp: str) -> Type:
    """The fresh sort at which generic proof fn `path` is verified for its
    type parameter `tp`."""
    return Type(f"!{path}::{tp}")


class PreludeStore:
    """The parsed prelude and the work on it that no program can change,
    kept for the life of the process (`prelude.prelude_store`). Its records
    are keyed by prelude declaration objects and mention only builtin and
    prelude sorts; work that mentions a user declaration or sort stays in
    the run's memo. Every record is inserted whole, after the keys of the
    symbols it demands, so a memo that copies the store on another thread
    copies only finished records. A record is immutable but for its lowered
    facts, which runs fill, first writer first (`MonoFn.lowered`). A program
    without the prelude's declaration objects matches no record and adds
    none. The results of prelude tasks are kept here too, each inserted
    whole by the parent process of a run (`driver._verify_tasks`)."""

    def __init__(self, asts: tuple[ProgramAst, ...]):
        self.asts = asts
        self.decls = frozenset(id(d) for a in asts for d in a.declarations)
        # the builtin sorts, the prelude's, and the skolem sorts at which its
        # generic proof fns are verified
        names = {"int", "nat", "bool"}
        for a in asts:
            for d in a.declarations:
                path = f"{a.module}::{d.name}"
                if isinstance(d, SortDecl):
                    names.add(path)
                elif isinstance(d, ProofFn):
                    names.update(skolem(path, tp).name for tp in d.type_params)
        self.sorts = frozenset(names)
        # the tables of `ResolveMemo` of the same names, for prelude work:
        # each memo starts from them
        self.checked: dict[int, MonoFn] = {}
        self.instances: dict[tuple[str, int], MonoFn] = {}
        self.keys: dict[str, tuple[str, tuple[Type, ...]]] = {}
        self.canonical: dict[Type, Type] = {}
        # the results of prelude tasks (`driver._verify_tasks`): key -> the
        # `FunctionResult`; the objects whose ids a key holds are this
        # store's records and their lowered facts
        self.verdicts: dict[tuple, object] = {}

    def holds(self, t: Type) -> bool:
        """Whether `t` mentions only builtin and prelude sorts."""
        return t.name in self.sorts and all(map(self.holds, t.args))


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
    """Checks one declaration, or a signature's types, and builds its typed
    tree: every expression node carries its carrier type in `ty` (binders
    keep nat, as parameters do), a const `Var` its path and a callee its
    instance symbol in `resolved`, a `UseStmt` its absolute paths."""

    def __init__(self, rs: "_Resolver", module: str, type_params: list[str]):
        self.rs = rs
        self.module = module
        self.type_params = set(type_params)
        # the parameters, binders and lets in scope: a name is never bound
        # twice at once, so one table serves every scope
        self.vars: dict[str, Type] = {}
        # how many quantifiers enclose the expression being checked: a
        # `#[trigger]` outside them all is misplaced. A spec fn's body and a
        # broadcast fn's clauses count one, as their parameters are lowered
        # to quantified binders.
        self.quantified = 0
        self.demands: list[str] = []
        self.sorts: set[Type] = set()
        self.uses: list[str] = []
        self.lemmas: list[str] = []
        # the memo's table of checked clauses and statements (`part`), and
        # the path of the fn being checked; None unless a caller's memo
        # records them
        self.parts: dict[tuple, _Part] | None = None
        self.path = ""

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

    def typed(self, ty: Type) -> Type:
        """The carrier of `ty`, which the tree mentions."""
        return ty if ty in self.sorts else self.rs.mention(ty, self.sorts)

    def check_call(self, node: Call | LemmaCall, name: str, args: list[Expr], kinds):
        """The typed arguments and `resolve_callable`'s path, symbol and type;
        the symbol is demanded before those the arguments demand."""
        start = len(self.demands)
        pairs = [self.check_expr(a) for a in args]
        typed, arg_tys = [a for a, _ in pairs], [t for _, t in pairs]
        path, sym, ty = self.rs.resolve_callable(node, name, self.module, arg_tys,
                                                 kinds)
        self.demands.insert(start, sym)
        return typed, path, sym, ty

    # -- expressions ---------------------------------------------------------

    def check_expr(self, e: Expr) -> tuple[Expr, Type]:
        """The typed tree of `e` and the type checking gave it."""
        mark = e.trigger_mark
        if mark and not self.quantified and not isinstance(e, (Forall, Exists)):
            raise ResolveError("misplaced #[trigger]: not inside a quantifier", e.span)
        # the node kinds by how often they occur
        if isinstance(e, Var):
            ty, resolved = self.vars.get(e.name), None
            if ty is None:
                resolved = self.rs.lookup(self.rs.consts, "const", e.name, self.module,
                                          e.span)
                if resolved is None:
                    raise ResolveError(f"unbound variable '{e.name}'", e.span)
                ty = self.rs.consts[resolved]
            return Var(e.span, name=e.name, resolved=resolved, ty=self.typed(ty),
                       trigger_mark=mark), ty
        if isinstance(e, BinOp):
            return self.check_binop(e)
        if isinstance(e, Call):
            args, _, sym, ty = self.check_call(e, e.name, e.args, (SpecFn,))
            return Call(e.span, name=e.name, args=args, method_style=e.method_style,
                        resolved=sym, ty=self.typed(ty), trigger_mark=mark), ty
        if isinstance(e, IntLit):
            return IntLit(e.span, value=e.value, ty=self.typed(INT),
                          trigger_mark=mark), INT
        if isinstance(e, BoolLit):
            return BoolLit(e.span, value=e.value, ty=self.typed(BOOL),
                           trigger_mark=mark), BOOL
        if isinstance(e, Not):
            return Not(e.span, arg=self.require(e.arg, BOOL), ty=self.typed(BOOL),
                       trigger_mark=mark), BOOL
        if isinstance(e, (Forall, Exists)):
            tys = [self.check_type(b.ty, e.span) for b in e.binders]
            for b, ty in zip(e.binders, tys):
                self.bind(b.name, ty, e.span, "binder")
            self.quantified += 1
            body = self.require(e.body, BOOL)
            self.quantified -= 1
            for b in e.binders:
                del self.vars[b.name]
            binders = [Binder(b.name, t if t.name == "nat" else carrier(t))
                       for b, t in zip(e.binders, tys)]
            return replace(e, binders=binders, body=body, ty=self.typed(BOOL)), BOOL
        raise ResolveError(f"cannot type {type(e).__name__}", e.span)

    def part(self, node: Expr | Stmt, check) -> Expr | Stmt:
        """`check(node)`, the typed tree of a clause or statement, and what
        checking it adds to the record. If the same node object was checked
        in the same scope (the fn's path, the quantifier depth, and the
        variables in scope with their types), all of that is taken from the
        memo's parts; otherwise it is checked now and recorded there. A
        check that raises records nothing."""
        parts = self.parts
        if parts is None:
            return check(node)
        key = (id(node), self.path, self.quantified, tuple(self.vars.items()))
        got = parts.get(key)
        if got is not None:
            _, typed, demands, sorts, uses, lemmas = got
            self.demands += demands
            self.sorts |= sorts
            self.uses += uses
            self.lemmas += lemmas
            return typed
        demands, uses, lemmas = len(self.demands), len(self.uses), len(self.lemmas)
        outer, self.sorts = self.sorts, set()  # the sorts `node` mentions
        typed = check(node)
        parts[key] = _Part(node, typed, tuple(self.demands[demands:]),
                           frozenset(self.sorts), tuple(self.uses[uses:]),
                           tuple(self.lemmas[lemmas:]))
        outer |= self.sorts
        self.sorts = outer
        return typed

    def check_clause(self, e: Expr) -> Expr:
        return self.require(e, BOOL)

    def require(self, e: Expr, want: Type) -> Expr:
        node, got = self.check_expr(e)
        if got is not want and carrier(got) != carrier(want):
            raise ResolveError(
                f"type mismatch: expected {want.render()}, got {got.render()}", e.span)
        return node

    def check_binop(self, e: BinOp) -> tuple[Expr, Type]:
        op = e.op
        if op in ("==", "!="):
            lhs, lt = self.check_expr(e.lhs)
            rhs, rt = self.check_expr(e.rhs)
            if carrier(lt) != carrier(rt):
                raise ResolveError(
                    f"type mismatch in {op}: {lt.render()} vs {rt.render()}", e.span)
            ty = BOOL
        else:
            if op not in BINARY_OPS:
                raise ResolveError(f"unknown operator {op}", e.span)
            operand = BOOL if op in ("&&", "||", "==>", "<==>") else INT
            lhs = self.require(e.lhs, operand)
            rhs = self.require(e.rhs, operand)
            ty = INT if op in ("+", "-", "*", "%") else BOOL
        return BinOp(e.span, op=op, lhs=lhs, rhs=rhs, ty=self.typed(ty),
                     trigger_mark=e.trigger_mark), ty

    # -- statements ----------------------------------------------------------

    def check_stmts(self, stmts: list[Stmt]) -> list[Stmt]:
        # a let binds a name, so it is always checked
        typed = [self.check_stmt(s) if isinstance(s, Let)
                 else self.part(s, self.check_stmt) for s in stmts]
        for s in stmts:
            if isinstance(s, Let):
                del self.vars[s.name]
        return typed

    def check_stmt(self, s: Stmt) -> Stmt:
        if isinstance(s, Assert):
            return Assert(s.span, expr=self.require(s.expr, BOOL))
        if isinstance(s, AssertBy):  # the expression first, as in the source
            expr = self.require(s.expr, BOOL)
            return AssertBy(s.span, expr=expr, body=self.check_stmts(s.body))
        if isinstance(s, Let):
            expr, ty = self.check_expr(s.expr)
            self.bind(s.name, ty, s.span, "let")
            return Let(s.span, name=s.name, expr=expr)
        if isinstance(s, LemmaCall):
            args, path, sym, _ = self.check_call(s, s.path, s.args, (ProofFn, AxiomFn))
            self.lemmas.append(path)
            return LemmaCall(s.span, path=s.path, args=args, resolved=sym)
        if isinstance(s, UseStmt):
            paths = [self.rs.resolve_import(p, self.module, s.span) for p in s.paths]
            self.uses.extend(paths)
            return UseStmt(s.span, paths=paths)
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
        self.store = memo.store
        self.symbols: dict[str, Declaration] = {}
        self.module_names: list[str] = []
        self.instances: dict[str, MonoFn] = {}
        self.instances_of: dict[str, list[str]] = {}
        self.queue: list[str] = []  # instance symbols
        self.live: set[Type] = set()  # sorts the instances mention
        self.fresh: set[Type] = set()  # those live since the last liveness round
        # per generic broadcast fact and type param, the sorts liveness bound
        self.candidates: list[list[set[Type]]] = []
        self.liveness_caps: dict[str, list[str]] = {}
        self.module_uses: dict[str, list[str]] = {}
        self.sorts: dict[str, SortDecl] = {}  # by path, from `resolve_signatures`
        # (name, module, kinds, *argument types) -> `resolve_callable`
        self.calls: dict[tuple, tuple[str, str, Type | None]] = {}
        self.found = memo.found  # the memo's name lookups

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

    def resolve_signatures(self):
        """Read off the interfaces, once per memo: the sorts, qualified
        const, parameter and spec fn return types, so a body may use a
        declaration that comes later in the source; the `roots` (every
        non-generic fn, and each generic proof fn at its own skolem sorts)
        and each proof fn's; and the generic broadcast facts with the
        parameter types liveness matches."""
        if self.memo.signatures is None:
            self.sorts = {f"{a.module}::{d.name}": d for a in self.asts
                          for d in a.declarations if isinstance(d, SortDecl)}
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
                            skolem(path, tp) for tp in d.type_params)))
                    if isinstance(d, ProofFn):
                        tasks[path] = roots[-1]
                    if d.type_params and getattr(d, "broadcast", False):
                        facts.append((path, d.type_params,
                                      [p.ty for p in params[path] if p.ty.args]))
            self.memo.signatures = (self.sorts, consts, params, rets, roots, tasks,
                                    facts)
        (self.sorts, self.consts, self.params, self.rets, self.roots,
         self.task_symbols, self.generic_facts) = self.memo.signatures

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
        search = [module] + [p for p in PRELUDE_MODULES if p in self.module_names]
        if module not in PRELUDE_MODULES:
            # the prelude names only its own declarations
            search += [m for m in self.module_names
                       if m != module and m not in PRELUDE_MODULES]
        paths = [name] if "::" in name else [f"{m}::{name}" for m in search]
        return tuple(dict.fromkeys(p for p in paths if p in self.symbols))

    def resolve_callable(self, node: Call | LemmaCall, name: str, module: str,
                         arg_tys: list[Type], kinds):
        """The callee of `node` by name and argument types: its path, its
        instance symbol and, for a spec fn, the call's type; kept per name,
        module, kinds and argument types."""
        key = (name, module, kinds, *arg_tys)
        got = self.calls.get(key)
        if got is not None:
            return got
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
        ret = _subst_type(self.rets[path], sub) if path in self.rets else None
        if ret is not None and ret.name == "nat":
            ret = INT
        got = self.calls[key] = (
            path, self.memo.symbol(path, tuple(sub[tp] for tp in decl.type_params)), ret)
        return got

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

    def keep(self, table: dict, key, fn: MonoFn) -> MonoFn:
        """Insert `fn` into the prelude store's `table`, after the keys of
        the symbols it demands and the sorts it mentions; return the record
        the store holds, the first inserted."""
        store, keys = self.store, self.memo.keys
        for sym in fn.demands:
            store.keys.setdefault(sym, keys[sym])
        for t in fn.sorts:
            store.canonical.setdefault(t, t)
        return table.setdefault(key, fn)

    # -- declaration checking --------------------------------------------------

    def check_all(self):
        """Check every declaration the memo has not checked yet, keeping its
        record in `memo.checked`, and a prelude declaration's also in the
        prelude store."""
        for ast in self.asts:
            for d in ast.declarations:
                if isinstance(d, BroadcastUse):
                    self.module_uses[ast.module].extend(
                        self.resolve_import(p, ast.module, d.span) for p in d.paths)
                elif isinstance(d, (SpecFn, ProofFn, AxiomFn)):
                    self.check(f"{ast.module}::{d.name}", d)
                elif not isinstance(d, (BroadcastGroup, SortDecl, ConstDecl)):
                    # groups are checked by build_registry, consts by resolve_signatures
                    raise ResolveError(f"unsupported declaration {type(d).__name__}",
                                       d.span)

    def check(self, path: str, d: Declaration) -> MonoFn:
        """Fn `d`'s checked record, from the memo or checked now and kept in
        the memo, and a prelude declaration's also in the prelude store."""
        got = self.memo.checked.get(id(d))
        if got is None:
            got = _check_decl(path, d, self)
            if got.kept:
                got = self.keep(self.store.checked, id(d), got)
            self.memo.checked[id(d)] = got
        return got

    # -- reusing the last program ------------------------------------------------

    def reuse(self, changed: list[tuple[str, Declaration, Declaration]],
              last: Program) -> Program:
        """The program of `self.asts` made from `last`, the memo's last
        program, whose interfaces it has, as the module docstring says:
        `collect`'s and `check_all`'s tables and the registry are `last`'s
        but for `changed` (`ResolveMemo.changes`), which are checked in
        source order, so that a check that fails raises a fresh resolve's
        error. `last`'s task orders stand when no proof fn's imports or
        lemma calls changed."""
        self.symbols = dict(last.symbols)
        self.symbols.update((path, d) for path, d, _ in changed)
        self.module_names = [a.module for a in self.asts]
        self.module_uses = last.module_uses
        self.resolve_signatures()
        memo, kept, same_order = self.memo, True, True
        for path, d, o in changed:
            now, before = self.check(path, d), memo.checked[id(o)]
            kept = kept and (
                now.sorts == before.sorts
                and _drained(now.demands) == _drained(before.demands)
                and not (isinstance(d, SpecFn) and (d.body is None) != (o.body is None)))
            same_order &= now.uses == before.uses and now.lemmas == before.lemmas
        orders = last.orders if same_order else {}
        if not kept:
            return self.instantiate_all(orders)
        instances = dict(last.instances)
        for path, d, _ in changed:
            for sym in last.instances_of.get(path, ()):
                fn = memo.instances.get((sym, id(d)))
                if fn is None:
                    fn = self.make_instance(sym, path, memo.keys[sym][1], d)
                instances[sym] = fn
        return replace(last, symbols=self.symbols, instances=instances, orders=orders)

    # -- monomorphization -------------------------------------------------------

    def instantiate_all(self, orders: dict) -> Program:
        """The program whose instances are drained from the roots, by the
        memo's records, with `orders` as its task orders."""
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
        return Program(
            symbols=self.symbols, instances=self.instances,
            instances_of={k: sorted(v) for k, v in self.instances_of.items()},
            module_uses=self.module_uses, spec_scc=self.spec_sccs(),
            task_symbols=self.task_symbols, liveness_caps=self.liveness_caps,
            orders=orders)

    def drain_queue(self):
        """Make every queued instance and, depth first, what it demands."""
        instances, queue, made = self.instances, self.queue, self.memo.instances
        while queue:
            sym = queue.pop()
            if sym in instances:
                continue
            path, targs = self.memo.keys[sym]
            decl = self.symbols[path]
            fn = made.get((sym, id(decl)))
            if fn is None:
                fn = self.make_instance(sym, path, targs, decl)
            queue.extend(fn.demands)
            instances[sym] = fn
            self.instances_of.setdefault(path, []).append(sym)
            self.fresh |= fn.sorts - self.live
            self.live |= fn.sorts

    def make_instance(self, sym: str, path: str, targs: tuple[Type, ...],
                      decl: Declaration) -> MonoFn:
        """The instance of `decl` at `targs`, kept in the memo, and also in
        the prelude store if it is a prelude declaration's at builtin and
        prelude sorts. A non-generic declaration's checked record is its
        instance; a generic one's is copied at `targs`."""
        fn = self.memo.checked[id(decl)]
        if targs:
            if max(map(type_depth, targs)) > MAX_TYPE_DEPTH:
                raise ResolveError(f"polymorphic recursion: '{path}' is demanded at "
                                   f"types nested deeper than {MAX_TYPE_DEPTH}",
                                   decl.span)
            tree, demands, sorts = _instantiate_decl(
                path, fn, dict(zip(decl.type_params, targs)), self)
            fn = MonoFn(sym, path, targs, fn.kind, tree, decl, demands,
                        fn.clause_demands, frozenset(sorts), fn.uses, fn.lemmas,
                        fn.kept and all(map(self.store.holds, targs)),
                        skolem_owners(targs))
        if fn.kept:
            fn = self.keep(self.store.instances, (sym, id(decl)), fn)
        self.memo.instances[sym, id(decl)] = fn
        return fn

    def mention(self, t: Type, sorts: set[Type]) -> Type:
        """Add `t`'s carrier and all its type arguments to `sorts`, the sorts
        a tree mentions; returns the carrier."""
        t = carrier(t)
        if t not in sorts:
            t = self.memo.canonical.setdefault(t, t)
            sorts.add(t)
            for a in t.args:
                self.mention(a, sorts)
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
            got = self.resolve_import(m, module_of(gpath), decl.span)
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
        graph = {sym: defined.intersection(fn.demands)
                 for sym, fn in self.instances.items() if fn.kind == "spec"}
        return {sym: tuple(comp) for comp in cyclic_components(graph) for sym in comp}


# ---------------------------------------------------------------------------
# Declaration checking and instantiation
# ---------------------------------------------------------------------------


def _drained(demands: tuple[str, ...]) -> tuple[str, ...]:
    """`demands` as `_Resolver.drain_queue` meets them: it pops the last
    first, so each symbol counts at its last place, and an earlier duplicate
    always finds its symbol made already."""
    return tuple(dict.fromkeys(reversed(demands)))


class _Part(NamedTuple):
    """What checking a clause or statement produced (`_Checker.part`): the
    node checked, which keeps the id in its key valid while the memo lives,
    its typed tree, its demands in order, the sorts it mentions, and its
    `broadcast use` and lemma paths."""

    node: Expr | Stmt
    typed: Expr | Stmt
    demands: tuple[str, ...]
    sorts: frozenset[Type]
    uses: tuple[str, ...]
    lemmas: tuple[str, ...]


def _check_decl(path: str, d: Declaration, rs: _Resolver) -> MonoFn:
    """Check fn `path` and build its typed tree: its record (`MonoFn`)."""
    if isinstance(d, SpecFn) and d.ret.name == "nat" and d.body is not None:
        raise ResolveError(
            "nat return types are only supported on bodiless spec fns", d.span)
    kept = id(d) in rs.store.decls
    ck = _Checker(rs, module_of(path), d.type_params)
    if not kept:  # the prelude store keeps a prelude declaration's record
        ck.parts, ck.path = rs.memo.parts, path
    params = rs.params[path]
    for p in params:
        ck.bind(p.name, p.ty, d.span, "parameter")
        ck.typed(p.ty)
    clause_demands = 0
    if isinstance(d, SpecFn):
        ret = rs.rets[path]
        ck.typed(ret)
        ck.quantified = 1
        tree = replace(d, type_params=[], ret=ret,
                       params=[Param(p.name, carrier(p.ty)) for p in params],
                       body=None if d.body is None else ck.require(d.body, ret))
    else:
        ck.quantified = int(d.broadcast)
        clauses = {"requires": [ck.part(e, ck.check_clause) for e in d.requires],
                   "ensures": [ck.part(e, ck.check_clause) for e in d.ensures]}
        clause_demands = len(ck.demands)
        ck.quantified = 0
        if isinstance(d, ProofFn):
            clauses["body"] = ck.check_stmts(d.body)
        tree = replace(d, type_params=[], params=list(params), **clauses)
    return MonoFn(rs.memo.symbol(path, ()), path, (), _KINDS[type(d)], tree, d,
                  tuple(ck.demands), clause_demands, frozenset(ck.sorts),
                  tuple(ck.uses), frozenset(ck.lemmas), kept)


class _Copy(NamedTuple):
    """What a generic tree's copy substitutes: type parameters (`sub`), and
    per template type and callee symbol its instance's."""

    sub: dict[str, Type]
    types: dict[Type, Type]
    symbols: dict[str, str]


def _instantiate_decl(path: str, checked: MonoFn, sub: dict[str, Type],
                      rs: _Resolver) -> tuple[Declaration, tuple[str, ...], set[Type]]:
    """The instance of generic fn `path` at `sub`: its checked tree copied
    under `sub`, the symbols it demands, in order, and the sorts it mentions."""
    sorts: set[Type] = set()
    types = {t: rs.mention(_subst_type(t, sub), sorts) for t in checked.sorts}
    symbols = {}
    for sym in checked.demands:
        callee, targs = rs.memo.keys[sym]
        symbols[sym] = rs.memo.symbol(callee, tuple(_subst_type(t, sub) for t in targs))
    c = _Copy(sub, types, symbols)
    t = checked.decl
    fields = {"params": [Param(p.name, _subst_type(p.ty, sub)) for p in t.params]}
    if isinstance(t, SpecFn):
        fields.update(ret=_subst_type(t.ret, sub),
                      body=None if t.body is None else _inst_expr(t.body, c))
    else:
        fields.update(requires=[_inst_expr(e, c) for e in t.requires],
                      ensures=[_inst_expr(e, c) for e in t.ensures])
        if isinstance(t, ProofFn):
            fields["body"] = [_inst_stmt(s, c) for s in t.body]
    return replace(t, **fields), tuple(symbols[sym] for sym in checked.demands), sorts


def _inst_expr(e: Expr, c: _Copy) -> Expr:
    ty = c.types[e.ty]
    # the node kinds by how often they occur
    if isinstance(e, Var):
        return Var(e.span, name=e.name, resolved=e.resolved, ty=ty,
                   trigger_mark=e.trigger_mark)
    if isinstance(e, BinOp):
        return BinOp(e.span, op=e.op, lhs=_inst_expr(e.lhs, c),
                     rhs=_inst_expr(e.rhs, c), ty=ty, trigger_mark=e.trigger_mark)
    if isinstance(e, Call):
        return Call(e.span, name=e.name, args=[_inst_expr(a, c) for a in e.args],
                    method_style=e.method_style, resolved=c.symbols[e.resolved],
                    ty=ty, trigger_mark=e.trigger_mark)
    if isinstance(e, IntLit):
        return IntLit(e.span, value=e.value, ty=ty, trigger_mark=e.trigger_mark)
    if isinstance(e, BoolLit):
        return BoolLit(e.span, value=e.value, ty=ty, trigger_mark=e.trigger_mark)
    if isinstance(e, Not):
        return Not(e.span, arg=_inst_expr(e.arg, c), ty=ty, trigger_mark=e.trigger_mark)
    # checked binders are carriers, or nat: a nat binder stays nat, so the
    # engine still adds its bound
    return replace(e, binders=[Binder(b.name, _subst_type(b.ty, c.sub))
                               for b in e.binders], body=_inst_expr(e.body, c), ty=ty)


def _inst_stmt(s: Stmt, c: _Copy) -> Stmt:
    if isinstance(s, Assert):
        return Assert(s.span, expr=_inst_expr(s.expr, c))
    if isinstance(s, AssertBy):
        return AssertBy(s.span, expr=_inst_expr(s.expr, c),
                        body=[_inst_stmt(i, c) for i in s.body])
    if isinstance(s, Let):
        return Let(s.span, name=s.name, expr=_inst_expr(s.expr, c))
    if isinstance(s, LemmaCall):
        return LemmaCall(s.span, path=s.path, args=[_inst_expr(a, c) for a in s.args],
                         resolved=c.symbols[s.resolved])
    return UseStmt(s.span, paths=list(s.paths))


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def resolve_program(asts: list[ProgramAst],
                    memo: ResolveMemo | None = None) -> tuple[Program, BroadcastRegistry]:
    """Resolve `asts`. With a `memo`, make the program from the last one the
    memo resolved if their interfaces agree (`_Resolver.reuse`), and record
    what this resolve does; otherwise resolve afresh, under a new memo
    unless `memo` has not been used. Work on the prelude, if `asts` contains
    it, is read from and kept in the prelude store."""
    changed = None if memo is None else memo.changes(asts)
    if changed is None:
        # an interface changed, or the memo holds only a failed resolve's
        # work: a memo serves only the interfaces it first resolved
        if memo is None or memo.store is not None:
            memo = ResolveMemo(record=False)
        memo.adopt(prelude_store())
        rs = _Resolver(asts, memo)
        rs.collect()
        rs.resolve_signatures()
        rs.check_all()
        memo.registry = rs.build_registry()
        program = rs.instantiate_all({})
    else:
        program = _Resolver(asts, memo).reuse(changed, memo.last[1])
    memo.last = (tuple((a.module, tuple(a.declarations)) for a in asts), program)
    return program, memo.registry


def entry_imports(program: Program, registry: BroadcastRegistry, task: str,
                  ambient: tuple[str, ...] = (), default: bool = True) -> list[str]:
    """The import paths (facts or groups) in scope when proof fn `task`
    starts, in import order: the default group unless `default` is off, the
    ambient paths, then its module's `broadcast use` paths."""
    module = module_of(task)
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
                ambient: tuple[str, ...] = ()) -> TaskOrder:
    """Topological order in which each proof fn is verified after what it
    relies on: the broadcast lemmas it imports (by `task_imports`) and the
    proof fns it calls (`MonoFn.lemmas`). Any cycle, through imports, calls
    or both, is a CycleError. Axioms are not tasks, so they add no edge, and
    the default group, which holds only axioms, is not expanded. A program
    keeps its order per ambient and registry (`Program.orders`)."""
    got = program.orders.get(ambient)
    if got is not None and got[0] is registry:
        return got[1]
    tasks = program.proof_fns()
    broadcast = {f for f, kind in registry.facts.items() if kind == "lemma"}
    deps = {t: {f for path in task_imports(program, registry, t, ambient, False)
                for f in registry.expand(path) if f in broadcast} for t in tasks}
    for t in tasks:
        lemmas = program.verify_instance(t).lemmas
        if lemmas:
            deps[t].update(f for f in lemmas if f in program.task_symbols)

    cycles = cyclic_components(deps)
    if cycles:
        raise CycleError("cyclic proof fn dependencies", cycles[0])

    layers: list[list[str]] = []  # each in source order, as `remaining` is
    placed: set[str] = set()
    remaining = tasks
    while remaining:
        layer = [t for t in remaining if deps[t] <= placed]
        layers.append(layer)
        placed.update(layer)
        remaining = [t for t in remaining if t not in placed]
    order = TaskOrder([t for layer in layers for t in layer], layers, deps)
    program.orders[ambient] = (registry, order)
    return order
