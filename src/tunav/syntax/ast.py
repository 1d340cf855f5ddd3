"""Abstract syntax for the surface language.

Structural equality between nodes deliberately ignores spans, inferred types
and display-only flags (`field(compare=False)`), so that a parse/render
round-trip compares equal while exact byte offsets still travel with every
node for diagnostics and for the assert minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SourceSpan:
    file: str
    start: int  # byte offset, inclusive
    end: int  # byte offset, exclusive
    line: int  # 1-based line of `start`
    col: int  # 1-based column of `start`

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"invalid span: start {self.start} > end {self.end}")

    def key(self) -> tuple[str, int, int]:
        return (self.file, self.start, self.end)


@dataclass(frozen=True)
class Type:
    """`int`, `nat`, `bool`, a type variable, or a (possibly generic) sort."""

    name: str
    args: tuple["Type", ...] = ()

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
    # Set on resolve's monomorphized copies; never part of structural equality.
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
    # Full path when the name resolves to a module-level const (set on
    # resolve's monomorphized copies).
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
    # Fully qualified monomorphic symbol, set on resolve's monomorphized copies.
    resolved: str | None = field(default=None, compare=False, repr=False)


ARITH_OPS = ("+", "-", "*", "%")
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
BOOL_OPS = ("&&", "||", "==>", "<==>")


@dataclass(eq=True)
class BinOp(Expr):
    op: str = "+"
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass(eq=True)
class Not(Expr):
    arg: Expr = None  # type: ignore[assignment]


@dataclass(eq=True)
class Forall(Expr):
    binders: list[Binder] = field(default_factory=list)
    body: Expr = None  # type: ignore[assignment]
    all_triggers: bool = False
    # Cached TriggerSelection, attached by vcgen; not structural.
    trigger_selection: object | None = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class Exists(Expr):
    binders: list[Binder] = field(default_factory=list)
    body: Expr = None  # type: ignore[assignment]
    trigger_selection: object | None = field(default=None, compare=False, repr=False)


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


def walk_exprs(e: Expr):
    """Yield `e` and all its sub-expressions, preorder."""
    yield e
    if isinstance(e, Call):
        for a in e.args:
            yield from walk_exprs(a)
    elif isinstance(e, BinOp):
        yield from walk_exprs(e.lhs)
        yield from walk_exprs(e.rhs)
    elif isinstance(e, Not):
        yield from walk_exprs(e.arg)
    elif isinstance(e, (Forall, Exists)):
        yield from walk_exprs(e.body)


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
