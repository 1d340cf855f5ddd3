"""Deterministic pretty-printer; also the minimizer's source rewriter.

`parse(render(parse(s)))` equals `parse(s)` structurally. Comments are not
preserved; method sugar is kept for display via the Call.method_style flag.
"""

from __future__ import annotations

from tunav.errors import TunavError
from tunav.syntax.ast import (
    Assert,
    AssertBy,
    AxiomFn,
    BinOp,
    BoolLit,
    BroadcastGroup,
    BroadcastUse,
    Call,
    ConstDecl,
    Exists,
    Expr,
    Forall,
    IntLit,
    LemmaCall,
    Let,
    Not,
    ProgramAst,
    ProofFn,
    SortDecl,
    SpecFn,
    Stmt,
    UseStmt,
    Var,
    walk_stmts,
)

_PREC = {"<==>": 1, "==>": 2, "||": 3, "&&": 4,
         "==": 5, "!=": 5, "<": 5, "<=": 5, ">": 5, ">=": 5,
         "+": 6, "-": 6, "*": 7, "%": 7}
_UNARY = 8
_ATOM = 9


def _prec(e: Expr) -> int:
    base: int
    if isinstance(e, BinOp):
        base = _PREC[e.op]
    elif isinstance(e, Not):
        base = _UNARY
    elif isinstance(e, (Forall, Exists)):
        base = 0
    elif isinstance(e, IntLit) and e.value < 0:
        base = _UNARY
    else:
        base = _ATOM
    if e.trigger_mark:
        base = min(base, _UNARY)
    return base


def render_expr(e: Expr, min_prec: int = 0) -> str:
    text = _render_inner(e)
    if e.trigger_mark:
        inner = text if _prec_unmarked(e) >= _UNARY else f"({text})"
        text = f"#[trigger] {inner}"
    if _prec(e) < min_prec:
        return f"({text})"
    return text


def _prec_unmarked(e: Expr) -> int:
    mark = e.trigger_mark
    e.trigger_mark = False
    try:
        return _prec(e)
    finally:
        e.trigger_mark = mark


def _render_inner(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        if e.method_style and e.args:
            recv = render_expr(e.args[0], _ATOM)
            rest = ", ".join(render_expr(a) for a in e.args[1:])
            return f"{recv}.{e.name}({rest})"
        return f"{e.name}({', '.join(render_expr(a) for a in e.args)})"
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        if e.op == "==>":  # right-associative
            lhs = render_expr(e.lhs, p + 1)
            rhs = render_expr(e.rhs, p)
        else:
            lhs = render_expr(e.lhs, p)
            rhs = render_expr(e.rhs, p + 1)
        return f"{lhs} {e.op} {rhs}"
    if isinstance(e, Not):
        return f"!{render_expr(e.arg, _UNARY)}"
    if isinstance(e, Forall):
        binders = ", ".join(f"{b.name}: {b.ty.render()}" for b in e.binders)
        attr = "#![all_triggers] " if e.all_triggers else ""
        return f"forall|{binders}| {attr}{render_expr(e.body)}"
    if isinstance(e, Exists):
        binders = ", ".join(f"{b.name}: {b.ty.render()}" for b in e.binders)
        return f"exists|{binders}| {render_expr(e.body)}"
    raise TunavError(f"cannot render expression {type(e).__name__}")


def _render_stmt(s: Stmt, indent: int, removed: set | None) -> list[str]:
    pad = " " * indent
    if removed is not None and isinstance(s, (Assert, AssertBy)) and s.span.key() in removed:
        return []
    if isinstance(s, Assert):
        return [f"{pad}assert({render_expr(s.expr)});"]
    if isinstance(s, AssertBy):
        lines = [f"{pad}assert({render_expr(s.expr)}) by {{"]
        for inner in s.body:
            lines.extend(_render_stmt(inner, indent + 4, removed))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(s, Let):
        return [f"{pad}let {s.name} = {render_expr(s.expr)};"]
    if isinstance(s, LemmaCall):
        return [f"{pad}{s.path}({', '.join(render_expr(a) for a in s.args)});"]
    if isinstance(s, UseStmt):
        return [f"{pad}broadcast use {{{', '.join(s.paths)}}};"]
    raise TunavError(f"cannot render statement {type(s).__name__}")


def _sig(name: str, type_params: list[str], params) -> str:
    tps = f"<{', '.join(type_params)}>" if type_params else ""
    ps = ", ".join(f"{p.name}: {p.ty.render()}" for p in params)
    return f"{name}{tps}({ps})"


def _req_ens(requires, ensures) -> list[str]:
    lines = []
    if requires:
        lines.append("    requires " + ", ".join(render_expr(r) for r in requires))
    if ensures:
        lines.append("    ensures " + ", ".join(render_expr(r) for r in ensures))
    return lines


def _render_decl(d, removed: set | None) -> list[str]:
    if isinstance(d, SpecFn):
        head = f"spec fn {_sig(d.name, d.type_params, d.params)} -> {d.ret.render()}"
        if d.body is None:
            return [head + ";"]
        return [head + " {", f"    {render_expr(d.body)}", "}"]
    if isinstance(d, ProofFn):
        kw = "broadcast proof fn" if d.broadcast else "proof fn"
        lines = [f"{kw} {_sig(d.name, d.type_params, d.params)}"]
        lines.extend(_req_ens(d.requires, d.ensures))
        lines.append("{")
        for s in d.body:
            lines.extend(_render_stmt(s, 4, removed))
        lines.append("}")
        return lines
    if isinstance(d, AxiomFn):
        kw = "broadcast axiom fn" if d.broadcast else "axiom fn"
        lines = [f"{kw} {_sig(d.name, d.type_params, d.params)}"]
        lines.extend(_req_ens(d.requires, d.ensures))
        lines[-1] += ";"
        return lines
    if isinstance(d, BroadcastGroup):
        lines = [f"broadcast group {d.name} {{"]
        for m in d.members:
            lines.append(f"    {m},")
        lines.append("}")
        return lines
    if isinstance(d, BroadcastUse):
        return [f"broadcast use {{{', '.join(d.paths)}}};"]
    if isinstance(d, SortDecl):
        tps = f"<{', '.join(d.type_params)}>" if d.type_params else ""
        return [f"sort {d.name}{tps};"]
    if isinstance(d, ConstDecl):
        return [f"const {d.name}: {d.ty.render()};"]
    raise TunavError(f"cannot render declaration {type(d).__name__}")


def render_module(program: ProgramAst) -> str:
    chunks = []
    for d in program.declarations:
        chunks.append("\n".join(_render_decl(d, None)))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


def render_without_sites(program: ProgramAst, removed) -> str:
    """Render `program` with the Assert/AssertBy statements at `removed` spans
    deleted (an AssertBy removal deletes the whole block).

    `removed` is an iterable of SourceSpan (or span keys)."""
    keys = set()
    for r in removed:
        keys.add(r if isinstance(r, tuple) else r.key())
    found = _collect_assert_keys(program)
    missing = keys - found
    if missing:
        raise TunavError(f"span does not identify an assert site: {sorted(missing)}")
    chunks = []
    for d in program.declarations:
        chunks.append("\n".join(_render_decl(d, keys)))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


def _collect_assert_keys(program: ProgramAst) -> set:
    return {s.span.key() for d in program.declarations if isinstance(d, ProofFn)
            for s in walk_stmts(d.body) if isinstance(s, (Assert, AssertBy))}
