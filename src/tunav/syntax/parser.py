"""Recursive-descent parser producing a :class:`ProgramAst`; binary
operators are parsed by precedence climbing over `ast.BINARY_OPS`.

A token is its index into the lexer's parallel lists (see `lexer`), and the
parser matches it by its `key`: a keyword, punctuation or attribute token's
text, `None` for any other token. So testing the next token is one index and
one compare, statements and atoms dispatch on the key of their first token,
and `BINARY_OPS` is looked up by key. An unkeyed token is the `eof` token if
its text is empty, an identifier if its text sorts at or after "A" (a letter
or `_` sorts after every digit), and an integer literal otherwise.

Lines and columns are found only for the token that starts a span, by
`bisect` in the lexer's table of newline offsets (`lexer.position`). A lone
identifier or literal operand is parsed by `expr` itself, without the
`unary` -> `postfix` -> `atom` chain.

Method-call sugar (`a.push(3)`) is desugared here, so every later phase only
sees plain applications. Chained comparisons (`0 <= i < s.len()`) desugar to
conjunctions.
"""

from __future__ import annotations

import os
from bisect import bisect_left

from tunav import cyclegc
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
from tunav.syntax.lexer import ALL_TRIGGERS_ATTR, KEYWORDS, TRIGGER_ATTR, position, tokenize


# what `BINARY_OPS` gives a token that is no binary operator
_NOT_AN_OPERATOR = (0, "")

# keys after an identifier or a literal that make it more than a lone operand
_TRAILERS = frozenset(("(", "::", "."))

# builds a `SourceSpan` from its fields without the checked constructor
_span = tuple.__new__


def module_path_for(path: str) -> str:
    stem = os.path.splitext(os.path.basename(path))[0]
    return stem


def parse_module(source: str, path: str, module: str | None = None) -> ProgramAst:
    """Parse one `.tv` file. `module` overrides the module path (file stem).
    The parse makes no reference cycles, so it pauses Python's cycle
    collector while it runs (`cyclegc.paused`); a caller's disabled
    collector stays disabled."""
    with cyclegc.paused():
        return _Parser(source, path).module(module or module_path_for(path))


class _Parser:
    def __init__(self, source: str, path: str):
        self.keys, self.texts, self.starts, self.ends, self.newlines = tokenize(source, path)
        self.path = path
        self.pos = 0

    # -- token plumbing ----------------------------------------------------
    #
    # `pos` never passes the final `eof` token: it only steps past a token
    # that matched a key, or whose text says it is an identifier, a literal
    # or a keyword, and none of those is `eof`.

    def at(self, key: str) -> bool:
        return self.keys[self.pos] == key

    def eat(self, key: str) -> bool:
        if self.keys[self.pos] == key:
            self.pos += 1
            return True
        return False

    def expect(self, key: str) -> int:
        i = self.pos
        if self.keys[i] != key:
            raise ParseError(f"expected {key!r}, found {self.texts[i]!r}", self.tok_span(i))
        self.pos = i + 1
        return i

    def expect_ident(self) -> str:
        """The text of the identifier at `pos`, which it steps past."""
        i = self.pos
        text = self.texts[i]
        if self.keys[i] is not None or text < "A":
            raise ParseError(f"expected identifier, found {text!r}", self.tok_span(i))
        self.pos = i + 1
        return text

    def tok_span(self, i: int) -> SourceSpan:
        return self.span_from(i, self.ends[i])

    def span_from(self, i: int, end: int | None = None) -> SourceSpan:
        """From token `i` to `end`, by default the end of the last token
        consumed. Built by `tuple.__new__`, which bypasses `SourceSpan.__new__`
        and its start <= end check, and is cheaper than the named tuple's
        `_make`: the parser's spans are well ordered (`test_syntax`)."""
        if end is None:
            end = self.ends[self.pos - 1]
        start = self.starts[i]
        nl = self.newlines
        line = bisect_left(nl, start)  # as `lexer.position`
        return _span(SourceSpan, (self.path, start, end, line, start - nl[line - 1]))

    # -- module ------------------------------------------------------------

    def module(self, modname: str) -> ProgramAst:
        decls: list[Declaration] = []
        while self.texts[self.pos]:  # up to the eof token, the one empty text
            decls.append(self.declaration())
        return ProgramAst(self.path, modname, decls)

    def declaration(self) -> Declaration:
        start = self.pos
        if self.eat("spec"):
            return self.spec_fn(start)
        if self.eat("sort"):
            name = self.expect_ident()
            tps = self.type_params()
            self.expect(";")
            return SortDecl(self.span_from(start), name, type_params=tps)
        if self.eat("const"):
            name = self.expect_ident()
            self.expect(":")
            ty = self.type_()
            self.expect(";")
            return ConstDecl(self.span_from(start), name, ty=ty)
        broadcast = bool(self.eat("broadcast"))
        if broadcast and self.eat("group"):
            name = self.expect_ident()
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
        raise ParseError(f"expected declaration, found {self.texts[self.pos]!r}",
                         self.tok_span(self.pos))

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
        first = self.expect_ident()
        if not self.at("::"):
            return first
        parts = [first]
        while self.eat("::"):
            parts.append(self.expect_ident())
        return "::".join(parts)

    def type_params(self) -> list[str]:
        tps: list[str] = []
        if self.eat("<"):
            while True:
                tps.append(self.expect_ident())
                if not self.eat(","):
                    break
            self.expect(">")
        return tps

    def type_(self) -> Type:
        i = self.pos
        key, text = self.keys[i], self.texts[i]
        if key is None and text >= "A":
            name = self.path_()
        elif key in KEYWORDS:
            self.pos = i + 1
            name = text
        else:
            raise ParseError(f"expected type, found {text!r}", self.tok_span(i))
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
            name = self.expect_ident()
            self.expect(":")
            ps.append(Param(name, self.type_()))
            if not self.eat(","):
                break
        self.expect(")")
        return ps

    def spec_fn(self, start: int) -> SpecFn:
        self.expect("fn")
        name = self.expect_ident()
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
            if self.keys[self.pos] in ("ensures", "{", ";"):
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

    def proof_fn(self, start: int, broadcast: bool) -> ProofFn:
        self.expect("fn")
        name = self.expect_ident()
        tps = self.type_params()
        ps = self.params()
        requires, ensures = self.req_ens()
        self.expect("{")
        body = self.stmts()
        self.expect("}")
        return ProofFn(self.span_from(start), name, broadcast=broadcast, type_params=tps,
                       params=ps, requires=requires, ensures=ensures, body=body)

    def axiom_fn(self, start: int, broadcast: bool) -> AxiomFn:
        self.expect("fn")
        name = self.expect_ident()
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
        start = self.pos
        key = self.keys[start]
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
            name = self.expect_ident()
            self.expect("=")
            e = self.expr()
            self.expect(";")
            return Let(self.span_from(start), name=name, expr=e)
        if key == "broadcast":
            self.pos += 1
            self.expect("use")
            paths = self.use_paths()
            return UseStmt(self.span_from(start), paths=paths)
        text = self.texts[start]
        if key is None and text >= "A":
            path = self.path_()
            args, _ = self.call_args()
            self.expect(";")
            return LemmaCall(self.span_from(start), path=path, args=args)
        raise ParseError(f"expected statement, found {text!r}", self.tok_span(start))

    # -- expressions ---------------------------------------------------------

    def expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over `BINARY_OPS`, keyed by the operator
        token's match key. Every BinOp spans from the first token of its
        leftmost operand to the end of its rhs."""
        keys, path = self.keys, self.path
        first = self.pos
        text = self.texts[first]
        if keys[first] is not None:
            lhs = self.unary()
        elif text and keys[first + 1] not in _TRAILERS:
            # a lone identifier or integer literal, as `atom` parses it
            self.pos = first + 1
            lhs_span = self.span_from(first, self.ends[first])
            lhs = (Var(lhs_span, name=text) if text >= "A"
                   else IntLit(lhs_span, value=int(text)))
        else:
            lhs = self.postfix()  # as `unary` would
        op = keys[self.pos]
        prec, assoc = BINARY_OPS.get(op, _NOT_AN_OPERATOR)
        if prec < min_prec:
            return lhs
        start = self.starts[first]
        line, col = position(self.newlines, start)
        chained: Expr | None = None  # rhs of the comparison that ends `lhs`
        while prec >= min_prec:
            self.pos += 1
            rhs = self.expr(prec if assoc == "right" else prec + 1)
            span = _span(SourceSpan, (path, start, rhs.span.end, line, col))
            if chained is not None and assoc == "chain":
                # a <= b < c  ==>  a <= b && b < c
                leg = BinOp(span, op=op, lhs=chained, rhs=rhs)
                lhs = BinOp(span, op="&&", lhs=lhs, rhs=leg)
            else:
                lhs = BinOp(span, op=op, lhs=lhs, rhs=rhs)
            chained = rhs if assoc == "chain" else None
            op = keys[self.pos]
            prec, assoc = BINARY_OPS.get(op, _NOT_AN_OPERATOR)
        return lhs

    def unary(self) -> Expr:
        t = self.pos
        key = self.keys[t]
        if key is None:  # an identifier, a literal or eof
            return self.postfix()
        if key == "!":
            self.pos += 1
            arg = self.unary()
            return Not(self.span_from(t, arg.span.end), arg=arg)
        if key == "-":
            lit = t + 1
            text = self.texts[lit]
            if self.keys[lit] is not None or not "0" <= text[:1] <= "9":
                raise ParseError("unary minus is only supported on integer literals",
                                 self.tok_span(lit))
            self.pos = lit + 1
            return IntLit(self.span_from(t, self.ends[lit]), value=-int(text))
        if key == TRIGGER_ATTR:
            self.pos += 1
            arg = self.unary()
            arg.trigger_mark = True
            return arg
        return self.postfix()

    def postfix(self) -> Expr:
        start = self.pos
        e = self.atom()
        while self.eat("."):
            name = self.expect_ident()
            args, end = self.call_args()
            e = Call(self.span_from(start, end), name=name, args=[e, *args],
                     method_style=True)
        return e

    def atom(self) -> Expr:
        t = self.pos
        key = self.keys[t]
        text = self.texts[t]
        if key is None:
            if text >= "A":
                path = self.path_()
                if self.at("("):
                    args, end = self.call_args()
                    return Call(self.span_from(t, end), name=path, args=args)
                return Var(self.span_from(t), name=path)
            if text:
                self.pos += 1
                return IntLit(self.tok_span(t), value=int(text))
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
        raise ParseError(f"expected expression, found {text!r}", self.tok_span(t))

    def quantifier(self, t: int) -> Forall | Exists:
        """`forall|binders| body` or `exists|...| body`, starting at token
        `t`."""
        self.pos += 1
        self.expect("|")
        binders = self.binders()
        self.expect("|")
        all_triggers = self.at(ALL_TRIGGERS_ATTR)
        if all_triggers:
            if self.keys[t] == "exists":
                raise ParseError("#![all_triggers] is only supported on forall",
                                 self.tok_span(self.pos))
            self.pos += 1
        body = self.expr()
        span = self.span_from(t, body.span.end)
        if self.keys[t] == "forall":
            return Forall(span, binders=binders, body=body, all_triggers=all_triggers)
        return Exists(span, binders=binders, body=body)

    def call_args(self) -> tuple[list[Expr], int]:
        """`(e, ...)`: the arguments and the end offset of the closing `)`."""
        self.expect("(")
        args: list[Expr] = []
        while not self.at(")"):
            args.append(self.expr())
            if not self.eat(","):
                break
        return args, self.ends[self.expect(")")]

    def binders(self) -> list[Binder]:
        out = []
        while True:
            name = self.expect_ident()
            self.expect(":")
            out.append(Binder(name, self.type_()))
            if not self.eat(","):
                break
        return out
