"""Abstract syntax for the surface language.

Structural equality between nodes deliberately ignores spans, inferred types
and display-only flags (`field(compare=False)`), so that a parse/render
round-trip compares equal while exact source offsets still travel with every
node for diagnostics and for the assert minimizer.

Only the parser writes into nodes. Later phases read trees and build new
ones: resolve's type checker builds a typed tree of each declaration with
`ty` and `resolved` filled in (a generic declaration's instances are copies
of it at their type arguments), and vcgen copies a tree to substitute into
it. Derived
facts such as a quantifier's trigger selection are computed where they are
used, never cached on a node, so a tree can be shared and reused as a value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence


class _SpanFields(NamedTuple):
    file: str
    start: int  # offset into the source text (in characters), inclusive
    end: int  # offset into the source text, exclusive
    line: int  # 1-based line of `start`
    col: int  # 1-based column of `start`


class SourceSpan(_SpanFields):
    """Where a node is in its file. The parser makes one for nearly every
    node, so it is a named tuple: immutable, compared and hashed by value,
    and several times cheaper to build than a frozen dataclass. The parser
    builds its spans with `_make`, which skips the check in `__new__`."""

    __slots__ = ()

    def __new__(cls, file: str, start: int, end: int, line: int, col: int):
        if start > end:
            raise ValueError(f"invalid span: start {start} > end {end}")
        return tuple.__new__(cls, (file, start, end, line, col))

    def key(self) -> tuple[str, int, int]:
        return (self.file, self.start, self.end)


@dataclass(frozen=True)
class Type:
    """`int`, `nat`, `bool`, a type variable, or a (possibly generic) sort."""

    name: str
    args: tuple["Type", ...] = ()

    # Resolve keys sets and dicts by types: the hash is computed on first use
    # and kept, so a nested type is not rehashed on every lookup.
    _hash = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.name, self.args))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # str hashes differ between processes: a copy computes its own
        return Type, (self.name, self.args)

    def render(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}<{', '.join(a.render() for a in self.args)}>"


INT = Type("int")
NAT = Type("nat")
BOOL = Type("bool")


@dataclass(frozen=True)
class Binder:
    name: str
    ty: Type


@dataclass(frozen=True)
class Param:
    name: str
    ty: Type


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(eq=True)
class Expr:
    span: SourceSpan = field(compare=False, repr=False)
    # Given on the typed trees resolve's type checker builds; never part of
    # structural equality.
    ty: Type | None = field(default=None, compare=False, repr=False, kw_only=True)
    # A `#[trigger]` annotation on this subterm (semantic: overrides inference).
    trigger_mark: bool = field(default=False, kw_only=True)


@dataclass(eq=True)
class IntLit(Expr):
    value: int = 0


@dataclass(eq=True)
class BoolLit(Expr):
    value: bool = False


@dataclass(eq=True)
class Var(Expr):
    name: str = ""
    # Full path when the name resolves to a module-level const (given on
    # resolve's typed trees).
    resolved: str | None = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class Call(Expr):
    """A (spec/proof) function application.

    Method sugar `recv.f(args)` is desugared in the parser to
    `Call(f, [recv, *args])`; `method_style` only steers rendering.
    """

    name: str = ""  # raw path text, e.g. "f" or "prelude::seq::push"
    args: list[Expr] = field(default_factory=list)
    method_style: bool = field(default=False, compare=False)
    # The callee's instance symbol, given on resolve's typed trees.
    resolved: str | None = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class BinOp(Expr):
    op: str = "+"
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


# The one operator table, read by the parser and the renderer:
# op -> (precedence, associativity); a higher precedence binds tighter.
# A "chain" operator is a comparison: the parser reads `a < b <= c` as
# `a < b && b <= c`, so a comparison operand of a comparison is parenthesised.
BINARY_OPS: dict[str, tuple[int, str]] = {
    "<==>": (1, "left"),
    "==>": (2, "right"),
    "||": (3, "left"),
    "&&": (4, "left"),
    **{op: (5, "chain") for op in ("==", "!=", "<", "<=", ">", ">=")},
    "+": (6, "left"),
    "-": (6, "left"),
    "*": (7, "left"),
    "%": (7, "left"),
}


@dataclass(eq=True)
class Not(Expr):
    arg: Expr = None  # type: ignore[assignment]


@dataclass(eq=True)
class Forall(Expr):
    binders: list[Binder] = field(default_factory=list)
    body: Expr = None  # type: ignore[assignment]
    all_triggers: bool = False


@dataclass(eq=True)
class Exists(Expr):
    binders: list[Binder] = field(default_factory=list)
    body: Expr = None  # type: ignore[assignment]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass(eq=True)
class Stmt:
    span: SourceSpan = field(compare=False, repr=False)


@dataclass(eq=True)
class Assert(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass(eq=True)
class AssertBy(Stmt):
    expr: Expr = None  # type: ignore[assignment]
    body: list[Stmt] = field(default_factory=list)


@dataclass(eq=True)
class Let(Stmt):
    name: str = ""
    expr: Expr = None  # type: ignore[assignment]


@dataclass(eq=True)
class LemmaCall(Stmt):
    path: str = ""
    args: list[Expr] = field(default_factory=list)
    resolved: str | None = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class UseStmt(Stmt):
    """`broadcast use { ... };` inside a proof body or assert-by block."""

    paths: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------


@dataclass(eq=True)
class Declaration:
    span: SourceSpan = field(compare=False, repr=False)
    name: str = ""


@dataclass(eq=True)
class SpecFn(Declaration):
    type_params: list[str] = field(default_factory=list)
    params: list[Param] = field(default_factory=list)
    ret: Type = BOOL
    body: Expr | None = None  # None: uninterpreted


@dataclass(eq=True)
class ProofFn(Declaration):
    broadcast: bool = False
    type_params: list[str] = field(default_factory=list)
    params: list[Param] = field(default_factory=list)
    requires: list[Expr] = field(default_factory=list)
    ensures: list[Expr] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)


@dataclass(eq=True)
class AxiomFn(Declaration):
    """Bodiless, trusted; `broadcast axiom fn ... ;`"""

    broadcast: bool = False
    type_params: list[str] = field(default_factory=list)
    params: list[Param] = field(default_factory=list)
    requires: list[Expr] = field(default_factory=list)
    ensures: list[Expr] = field(default_factory=list)


@dataclass(eq=True)
class BroadcastGroup(Declaration):
    members: list[str] = field(default_factory=list)


@dataclass(eq=True)
class BroadcastUse(Declaration):
    """Module-level `broadcast use { ... };`"""

    paths: list[str] = field(default_factory=list)


@dataclass(eq=True)
class SortDecl(Declaration):
    type_params: list[str] = field(default_factory=list)


@dataclass(eq=True)
class ConstDecl(Declaration):
    ty: Type = INT


@dataclass(eq=True)
class ProgramAst:
    path: str
    module: str  # module path, e.g. "prelude::seq" or the file stem
    declarations: list[Declaration] = field(default_factory=list)


def children(e: Expr) -> Sequence[Expr]:
    """`e`'s direct subterms. A quantifier has none: its body is under its
    binders, so each walker decides whether to enter it."""
    if isinstance(e, Call):
        return e.args
    if isinstance(e, BinOp):
        return (e.lhs, e.rhs)
    if isinstance(e, Not):
        return (e.arg,)
    return ()


def walk_exprs(e: Expr):
    """Yield `e` and all its sub-expressions, preorder, quantifier bodies
    included."""
    yield e
    for c in (e.body,) if isinstance(e, (Forall, Exists)) else children(e):
        yield from walk_exprs(c)


def walk_stmts(stmts: list[Stmt]):
    """Yield statements, preorder: an AssertBy precedes its body."""
    for s in stmts:
        yield s
        if isinstance(s, AssertBy):
            yield from walk_stmts(s.body)


def stmt_exprs(s: Stmt) -> list[Expr]:
    if isinstance(s, (Assert, AssertBy)):
        return [s.expr]
    if isinstance(s, Let):
        return [s.expr]
    if isinstance(s, LemmaCall):
        return list(s.args)
    return []
