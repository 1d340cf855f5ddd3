"""Recursive-descent parser producing a :class:`ProgramAst`; binary
operators are parsed by precedence climbing over `ast.BINARY_OPS`.

The parser reads tokens by index and matches them by their `key` (see
`lexer`): a keyword, punctuation or attribute token's text, `None` for any
other token. So testing the next token is one index and one compare,
statements and atoms dispatch on the key of their first token, and
`BINARY_OPS` is looked up by key.

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


# what `BINARY_OPS` gives a token that is no binary operator
_NOT_AN_OPERATOR = (0, "")


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
    #
    # `pos` never passes the final `eof` token: it only steps past a token
    # that matched a key, or whose kind says it is an identifier, a literal
    # or a keyword, and none of those is `eof`.

    def peek(self) -> Token:
        return self.toks[self.pos]

    def at(self, key: str) -> bool:
        return self.toks[self.pos].key == key

    def eat(self, key: str) -> bool:
        if self.toks[self.pos].key == key:
            self.pos += 1
            return True
        return False

    def expect(self, key: str) -> Token:
        t = self.toks[self.pos]
        if t.key != key:
            raise ParseError(f"expected {key!r}, found {t.text!r}", self.tok_span(t))
        self.pos += 1
        return t

    def expect_ident(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "ident":
            raise ParseError(f"expected identifier, found {t.text!r}", self.tok_span(t))
        self.pos += 1
        return t

    def tok_span(self, t: Token) -> SourceSpan:
        return SourceSpan(self.path, t.start, t.end, t.line, t.col)

    def span_from(self, start_tok: Token, end: int | None = None) -> SourceSpan:
        """From `start_tok` to `end`, by default the end of the last token
        consumed."""
        if end is None:
            end = self.toks[self.pos - 1].end
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
        first = self.expect_ident().text
        if not self.at("::"):
            return first
        parts = [first]
        while self.eat("::"):
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
        t = self.toks[self.pos]
        if t.kind == "ident":
            name = self.path_()
        elif t.kind == "kw":
            self.pos += 1
            name = t.text
        else:
            raise ParseError(f"expected type, found {t.text!r}", self.tok_span(t))
        if not self.eat("<"):
            return Type(name)
        args = [self.type_()]
        while self.eat(","):
            args.append(self.type_())
        self.expect(">")
        return Type(name, tuple(args))

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
            if self.peek().key in ("ensures", "{", ";"):
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
        start = self.toks[self.pos]
        key = start.key
        if key == "assert":
            self.pos += 1
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
        if key == "let":
            self.pos += 1
            name = self.expect_ident().text
            self.expect("=")
            e = self.expr()
            self.expect(";")
            return Let(self.span_from(start), name=name, expr=e)
        if key == "broadcast":
            self.pos += 1
            self.expect("use")
            paths = self.use_paths()
            return UseStmt(self.span_from(start), paths=paths)
        if start.kind == "ident":
            path = self.path_()
            args, _ = self.call_args()
            self.expect(";")
            return LemmaCall(self.span_from(start), path=path, args=args)
        raise ParseError(f"expected statement, found {start.text!r}", self.tok_span(start))

    # -- expressions ---------------------------------------------------------

    def expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over `BINARY_OPS`, keyed by the operator
        token's match key. Every BinOp spans from the first token of its
        leftmost operand to the end of its rhs."""
        toks, path = self.toks, self.path
        start = toks[self.pos]
        lhs = self.unary()
        chained: Expr | None = None  # rhs of the comparison that ends `lhs`
        while True:
            op = toks[self.pos].key
            prec, assoc = BINARY_OPS.get(op, _NOT_AN_OPERATOR)
            if prec < min_prec:
                return lhs
            self.pos += 1
            rhs = self.expr(prec if assoc == "right" else prec + 1)
            span = SourceSpan(path, start.start, rhs.span.end, start.line, start.col)
            if chained is not None and assoc == "chain":
                # a <= b < c  ==>  a <= b && b < c
                leg = BinOp(span, op=op, lhs=chained, rhs=rhs)
                lhs = BinOp(span, op="&&", lhs=lhs, rhs=leg)
            else:
                lhs = BinOp(span, op=op, lhs=lhs, rhs=rhs)
            chained = rhs if assoc == "chain" else None

    def unary(self) -> Expr:
        t = self.toks[self.pos]
        key = t.key
        if key is None:  # an identifier, a literal or eof
            return self.postfix()
        if key == "!":
            self.pos += 1
            arg = self.unary()
            return Not(self.span_from(t, arg.span.end), arg=arg)
        if key == "-":
            self.pos += 1
            lit = self.toks[self.pos]
            if lit.kind != "int":
                raise ParseError("unary minus is only supported on integer literals",
                                 self.tok_span(lit))
            self.pos += 1
            return IntLit(self.span_from(t, lit.end), value=-int(lit.text))
        if key == TRIGGER_ATTR:
            self.pos += 1
            arg = self.unary()
            arg.trigger_mark = True
            return arg
        return self.postfix()

    def postfix(self) -> Expr:
        start = self.toks[self.pos]
        e = self.atom()
        while self.eat("."):
            name = self.expect_ident().text
            args, close = self.call_args()
            e = Call(self.span_from(start, close.end), name=name, args=[e, *args],
                     method_style=True)
        return e

    def atom(self) -> Expr:
        t = self.toks[self.pos]
        key = t.key
        if key is None:
            if t.kind == "ident":
                path = self.path_()
                if self.at("("):
                    args, close = self.call_args()
                    return Call(self.span_from(t, close.end), name=path, args=args)
                return Var(self.span_from(t), name=path)
            if t.kind == "int":
                self.pos += 1
                return IntLit(self.tok_span(t), value=int(t.text))
        elif key == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        elif key == "true" or key == "false":
            self.pos += 1
            return BoolLit(self.tok_span(t), value=key == "true")
        elif key == "forall" or key == "exists":
            return self.quantifier(t)
        raise ParseError(f"expected expression, found {t.text!r}", self.tok_span(t))

    def quantifier(self, t: Token) -> Forall | Exists:
        """`forall|binders| body` or `exists|...| body`, starting at `t`."""
        self.pos += 1
        self.expect("|")
        binders = self.binders()
        self.expect("|")
        all_triggers = self.at(ALL_TRIGGERS_ATTR)
        if all_triggers:
            if t.key == "exists":
                raise ParseError("#![all_triggers] is only supported on forall",
                                 self.tok_span(self.peek()))
            self.pos += 1
        body = self.expr()
        span = self.span_from(t, body.span.end)
        if t.key == "forall":
            return Forall(span, binders=binders, body=body, all_triggers=all_triggers)
        return Exists(span, binders=binders, body=body)

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
