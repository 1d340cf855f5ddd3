"""Deterministic pretty-printer; `minimize --write` renders the pruned
modules with it.

`parse(render(parse(s)))` equals `parse(s)` structurally. Comments are not
preserved; method sugar is kept for display via the Call.method_style flag.
Operands are parenthesised by the parser's own table, `ast.BINARY_OPS`: an
operand of equal precedence goes bare only on the side its operator
associates to, so a comparison operand of a comparison is always
parenthesised and never re-read as a chain.
"""

from __future__ import annotations

from tunav.errors import TunavError
from tunav.syntax.ast import (
    Assert,
    AssertBy,
    AxiomFn,
    BINARY_OPS,
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
)

_UNARY = max(prec for prec, _ in BINARY_OPS.values()) + 1
_ATOM = _UNARY + 1


def _prec_unmarked(e: Expr) -> int:
    if isinstance(e, BinOp):
        return BINARY_OPS[e.op][0]
    if isinstance(e, Not):
        return _UNARY
    if isinstance(e, (Forall, Exists)):
        return 0
    if isinstance(e, IntLit) and e.value < 0:
        return _UNARY
    return _ATOM


def render_expr(e: Expr, min_prec: int = 0) -> str:
    text = _render_inner(e)
    prec = _prec_unmarked(e)
    if e.trigger_mark:
        text = f"#[trigger] {text}" if prec >= _UNARY else f"#[trigger] ({text})"
        prec = min(prec, _UNARY)
    if prec < min_prec:
        return f"({text})"
    return text


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
        p, assoc = BINARY_OPS[e.op]
        lhs = render_expr(e.lhs, p if assoc == "left" else p + 1)
        rhs = render_expr(e.rhs, p if assoc == "right" else p + 1)
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


def _render_stmt(s: Stmt, indent: int) -> list[str]:
    pad = " " * indent
    if isinstance(s, Assert):
        return [f"{pad}assert({render_expr(s.expr)});"]
    if isinstance(s, AssertBy):
        lines = [f"{pad}assert({render_expr(s.expr)}) by {{"]
        for inner in s.body:
            lines.extend(_render_stmt(inner, indent + 4))
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


def _render_decl(d) -> list[str]:
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
            lines.extend(_render_stmt(s, 4))
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
        chunks.append("\n".join(_render_decl(d)))
    return "\n\n".join(chunks) + ("\n" if chunks else "")
