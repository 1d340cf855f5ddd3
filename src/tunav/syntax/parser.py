"""Recursive-descent parser producing a :class:`ProgramAst`; binary
operators are parsed by precedence climbing over `ast.BINARY_OPS`.

Method-call sugar (`a.push(3)`) is desugared here, so every later phase only
sees plain applications. Chained comparisons (`0 <= i < s.len()`) desugar to
conjunctions.
"""

from __future__ import annotations

import os

from tunav.errors import ParseError
from tunav.syntax.ast import (
    Assert,
    AssertBy,
    AxiomFn,
    BINARY_OPS,
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
    SourceSpan,
    SpecFn,
    Stmt,
    Type,
    UseStmt,
    Var,
)
from tunav.syntax.lexer import ALL_TRIGGERS_ATTR, TRIGGER_ATTR, Token, tokenize


def module_path_for(path: str) -> str:
    stem = os.path.splitext(os.path.basename(path))[0]
    return stem


def parse_module(source: str, path: str, module: str | None = None) -> ProgramAst:
    """Parse one `.tv` file. `module` overrides the module path (file stem)."""
    return _Parser(source, path).module(module or module_path_for(path))


class _Parser:
    def __init__(self, source: str, path: str):
        self.toks = tokenize(source, path)
        self.path = path
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("punct", "kw", "attr")

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found {t.text!r}", self.tok_span(t))
        return self.next()

    def expect_ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(f"expected identifier, found {t.text!r}", self.tok_span(t))
        return self.next()

    def tok_span(self, t: Token) -> SourceSpan:
        return SourceSpan(self.path, t.start, t.end, t.line, t.col)

    def span_from(self, start_tok: Token, end: int | None = None) -> SourceSpan:
        if end is None:
            end = self.toks[max(self.pos - 1, 0)].end
        return SourceSpan(self.path, start_tok.start, end, start_tok.line, start_tok.col)

    # -- module ------------------------------------------------------------

    def module(self, modname: str) -> ProgramAst:
        decls: list[Declaration] = []
        while self.peek().kind != "eof":
            decls.append(self.declaration())
        return ProgramAst(self.path, modname, decls)

    def declaration(self) -> Declaration:
        start = self.peek()
        if self.eat("spec"):
            return self.spec_fn(start)
        if self.eat("sort"):
            name = self.expect_ident().text
            tps = self.type_params()
            self.expect(";")
            return SortDecl(self.span_from(start), name, type_params=tps)
        if self.eat("const"):
            name = self.expect_ident().text
            self.expect(":")
            ty = self.type_()
            self.expect(";")
            return ConstDecl(self.span_from(start), name, ty=ty)
        broadcast = bool(self.eat("broadcast"))
        if broadcast and self.eat("group"):
            name = self.expect_ident().text
            self.expect("{")
            members = self.path_list("}")
            self.expect("}")
            return BroadcastGroup(self.span_from(start), name, members=members)
        if broadcast and self.eat("use"):
            paths = self.use_paths()
            return BroadcastUse(self.span_from(start), "", paths=paths)
        if self.eat("proof"):
            return self.proof_fn(start, broadcast)
        if self.eat("axiom"):
            return self.axiom_fn(start, broadcast)
        t = self.peek()
        raise ParseError(f"expected declaration, found {t.text!r}", self.tok_span(t))

    def use_paths(self) -> list[str]:
        self.expect("{")
        paths = self.path_list("}")
        self.expect("}")
        self.expect(";")
        return paths

    def path_list(self, closer: str) -> list[str]:
        paths = []
        while not self.at(closer):
            paths.append(self.path_())
            if not self.eat(","):
                break
        return paths

    def path_(self) -> str:
        parts = [self.expect_ident().text]
        while self.at("::"):
            self.next()
            parts.append(self.expect_ident().text)
        return "::".join(parts)

    def type_params(self) -> list[str]:
        tps: list[str] = []
        if self.eat("<"):
            while True:
                tps.append(self.expect_ident().text)
                if not self.eat(","):
                    break
            self.expect(">")
        return tps

    def type_(self) -> Type:
        t = self.peek()
        if t.kind not in ("ident", "kw"):
            raise ParseError(f"expected type, found {t.text!r}", self.tok_span(t))
        if t.kind == "ident":
            name = self.path_()
        else:
            name = self.next().text
        args: tuple[Type, ...] = ()
        if self.at("<"):
            self.next()
            lst = [self.type_()]
            while self.eat(","):
                lst.append(self.type_())
            self.expect(">")
            args = tuple(lst)
        return Type(name, args)

    def params(self) -> list[Param]:
        self.expect("(")
        ps: list[Param] = []
        while not self.at(")"):
            name = self.expect_ident().text
            self.expect(":")
            ps.append(Param(name, self.type_()))
            if not self.eat(","):
                break
        self.expect(")")
        return ps

    def spec_fn(self, start: Token) -> SpecFn:
        self.expect("fn")
        name = self.expect_ident().text
        tps = self.type_params()
        ps = self.params()
        ret = Type("bool")
        if self.eat("->"):
            ret = self.type_()
        body: Expr | None = None
        if self.eat("{"):
            body = self.expr()
            self.expect("}")
        else:
            self.expect(";")
        return SpecFn(self.span_from(start), name, type_params=tps, params=ps, ret=ret, body=body)

    def clause_list(self) -> list[Expr]:
        clauses = [self.expr()]
        while self.eat(","):
            if self.at("ensures") or self.at("{") or self.at(";"):
                break
            clauses.append(self.expr())
        return clauses

    def req_ens(self) -> tuple[list[Expr], list[Expr]]:
        requires: list[Expr] = []
        ensures: list[Expr] = []
        if self.eat("requires"):
            requires = self.clause_list()
        if self.eat("ensures"):
            ensures = self.clause_list()
        return requires, ensures

    def proof_fn(self, start: Token, broadcast: bool) -> ProofFn:
        self.expect("fn")
        name = self.expect_ident().text
        tps = self.type_params()
        ps = self.params()
        requires, ensures = self.req_ens()
        self.expect("{")
        body = self.stmts()
        self.expect("}")
        return ProofFn(self.span_from(start), name, broadcast=broadcast, type_params=tps,
                       params=ps, requires=requires, ensures=ensures, body=body)

    def axiom_fn(self, start: Token, broadcast: bool) -> AxiomFn:
        self.expect("fn")
        name = self.expect_ident().text
        tps = self.type_params()
        ps = self.params()
        requires, ensures = self.req_ens()
        self.expect(";")
        return AxiomFn(self.span_from(start), name, broadcast=broadcast, type_params=tps,
                       params=ps, requires=requires, ensures=ensures)

    # -- statements ----------------------------------------------------------

    def stmts(self) -> list[Stmt]:
        out: list[Stmt] = []
        while not self.at("}"):
            out.append(self.stmt())
        return out

    def stmt(self) -> Stmt:
        start = self.peek()
        if self.eat("assert"):
            self.expect("(")
            e = self.expr()
            self.expect(")")
            if self.eat("by"):
                self.expect("{")
                body = self.stmts()
                self.expect("}")
                self.eat(";")
                return AssertBy(self.span_from(start), expr=e, body=body)
            self.expect(";")
            return Assert(self.span_from(start), expr=e)
        if self.eat("let"):
            name = self.expect_ident().text
            self.expect("=")
            e = self.expr()
            self.expect(";")
            return Let(self.span_from(start), name=name, expr=e)
        if self.at("broadcast"):
            self.next()
            self.expect("use")
            paths = self.use_paths()
            return UseStmt(self.span_from(start), paths=paths)
        if self.peek().kind == "ident":
            path = self.path_()
            args, _ = self.call_args()
            self.expect(";")
            return LemmaCall(self.span_from(start), path=path, args=args)
        raise ParseError(f"expected statement, found {self.peek().text!r}",
                         self.tok_span(self.peek()))

    # -- expressions ---------------------------------------------------------

    def expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over `BINARY_OPS`. Every BinOp spans from the
        first token of its leftmost operand to the end of its rhs."""
        start = self.peek()
        lhs = self.unary()
        chained: Expr | None = None  # rhs of the comparison that ends `lhs`
        while True:
            op = self.peek().text
            prec, assoc = BINARY_OPS.get(op, (0, ""))
            if prec < min_prec:
                return lhs
            self.next()
            rhs = self.expr(prec if assoc == "right" else prec + 1)
            span = self.span_from(start, rhs.span.end)
            if chained is not None and assoc == "chain":
                # a <= b < c  ==>  a <= b && b < c
                leg = BinOp(span, op=op, lhs=chained, rhs=rhs)
                lhs = BinOp(span, op="&&", lhs=lhs, rhs=leg)
            else:
                lhs = BinOp(span, op=op, lhs=lhs, rhs=rhs)
            chained = rhs if assoc == "chain" else None

    def unary(self) -> Expr:
        t = self.peek()
        if self.at("!"):
            self.next()
            arg = self.unary()
            return Not(self.span_from(t, arg.span.end), arg=arg)
        if self.at("-"):
            self.next()
            lit = self.peek()
            if lit.kind != "int":
                raise ParseError("unary minus is only supported on integer literals",
                                 self.tok_span(lit))
            self.next()
            return IntLit(self.span_from(t, lit.end), value=-int(lit.text))
        if t.kind == "attr" and t.text == TRIGGER_ATTR:
            self.next()
            arg = self.unary()
            arg.trigger_mark = True
            return arg
        return self.postfix()

    def postfix(self) -> Expr:
        start = self.peek()
        e = self.atom()
        while self.at("."):
            self.next()
            name = self.expect_ident().text
            args, close = self.call_args()
            e = Call(self.span_from(start, close.end), name=name, args=[e, *args],
                     method_style=True)
        return e

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(self.tok_span(t), value=int(t.text))
        if self.at("true"):
            self.next()
            return BoolLit(self.tok_span(t), value=True)
        if self.at("false"):
            self.next()
            return BoolLit(self.tok_span(t), value=False)
        if self.at("("):
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if self.at("forall") or self.at("exists"):
            kind = self.next().text
            self.expect("|")
            binders = self.binders()
            self.expect("|")
            all_triggers = False
            if self.peek().kind == "attr" and self.peek().text == ALL_TRIGGERS_ATTR:
                if kind == "exists":
                    raise ParseError("#![all_triggers] is only supported on forall",
                                     self.tok_span(self.peek()))
                self.next()
                all_triggers = True
            body = self.expr()
            span = self.span_from(t, body.span.end)
            if kind == "forall":
                return Forall(span, binders=binders, body=body, all_triggers=all_triggers)
            return Exists(span, binders=binders, body=body)
        if t.kind == "ident":
            path = self.path_()
            if self.at("("):
                args, close = self.call_args()
                return Call(self.span_from(t, close.end), name=path, args=args)
            return Var(self.span_from(t), name=path)
        raise ParseError(f"expected expression, found {t.text!r}", self.tok_span(t))

    def call_args(self) -> tuple[list[Expr], Token]:
        """`(e, ...)`: the arguments and the closing `)` token."""
        self.expect("(")
        args: list[Expr] = []
        while not self.at(")"):
            args.append(self.expr())
            if not self.eat(","):
                break
        return args, self.expect(")")

    def binders(self) -> list[Binder]:
        out = []
        while True:
            name = self.expect_ident().text
            self.expect(":")
            out.append(Binder(name, self.type_()))
            if not self.eat(","):
                break
        return out
