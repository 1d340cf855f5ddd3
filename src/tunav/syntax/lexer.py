"""Lexer for `.tv` sources (UTF-8, `//` line comments).

One compiled pattern scans the source with `finditer`; each match is one
token together with the whitespace and comments before it, so the loop runs
once per token. Keywords are matched by the pattern, punctuation longest
first. An integer literal is ASCII `[0-9]+`; an identifier is a letter
(`str.isalpha`) or `_` followed by word characters (`\\w`, i.e. `str.isalnum`
or `_`).

Every token carries its match `key`: its text for a keyword, punctuation or
attribute token, `None` for an identifier, an integer literal and `eof`. The
parser tests and dispatches on that key alone, so `at("fn")` is one compare
and an identifier named like a keyword cannot exist.
"""

from __future__ import annotations

import re

from tunav.errors import ParseError
from tunav.syntax.ast import SourceSpan

KEYWORDS = {
    "spec",
    "proof",
    "axiom",
    "fn",
    "broadcast",
    "group",
    "use",
    "requires",
    "ensures",
    "assert",
    "by",
    "let",
    "forall",
    "exists",
    "true",
    "false",
    "sort",
    "const",
}

PUNCT = [
    "<==>",
    "==>",
    "::",
    "->",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "(",
    ")",
    "{",
    "}",
    "<",
    ">",
    "|",
    ",",
    ";",
    ":",
    ".",
    "!",
    "+",
    "-",
    "*",
    "%",
    "=",
]

TRIGGER_ATTR = "#[trigger]"
ALL_TRIGGERS_ATTR = "#![all_triggers]"


class Token:
    """One token. A slotted class: the lexer makes one per token, and the
    parser reads `key` on every look."""

    __slots__ = ("kind", "text", "start", "end", "line", "col", "key")

    def __init__(self, kind: str, text: str, start: int, end: int, line: int,
                 col: int, key: str | None):
        self.kind = kind  # "ident" | "int" | "kw" | "punct" | "attr" | "eof"
        self.text = text
        self.start = start
        self.end = end
        self.line = line
        self.col = col
        self.key = key  # `text` for "kw", "punct" and "attr"; else None

    def __repr__(self) -> str:
        return (f"Token({self.kind!r}, {self.text!r}, {self.start}, {self.end}, "
                f"{self.line}, {self.col})")


def _alternatives(texts) -> str:
    return "|".join(map(re.escape, sorted(texts, key=len, reverse=True)))


# Skipped text, then exactly one token. An identifier that starts with a
# non-ASCII word character is a `uword`, checked by `str.isalpha` below;
# `eof` matches the empty end of the source.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*(?:"
    r"(?P<int>[0-9]+)"
    r"|(?P<kw>(?:" + _alternatives(KEYWORDS) + r")(?!\w))"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<uword>\w+)"
    r"|(?P<punct>" + _alternatives(PUNCT) + ")"
    r"|(?P<attr>" + _alternatives((ALL_TRIGGERS_ATTR, TRIGGER_ATTR)) + ")"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))")


def tokenize(source: str, path: str) -> list[Token]:
    """The tokens of `source`, ending with one `eof` token at its end."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of `line`
    prev = 0  # end of the previous token
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        start, end = m.span(kind)
        if start != prev:
            nl = source.rfind("\n", prev, start)
            if nl >= 0:
                line += source.count("\n", prev, nl + 1)
                line_start = nl + 1
        prev = end
        text = source[start:end]
        if kind == "ident" or kind == "int":
            append(Token(kind, text, start, end, line, start - line_start + 1, None))
        elif kind == "kw" or kind == "punct" or kind == "attr":
            append(Token(kind, text, start, end, line, start - line_start + 1, text))
        elif kind == "uword" and text[0].isalpha():
            append(Token("ident", text, start, end, line, start - line_start + 1, None))
        elif kind == "eof":
            append(Token("eof", "", start, end, line, start - line_start + 1, None))
            break
        else:
            # `bad`, or a `uword` that starts with a numeric character such
            # as `²` or `٣`, which starts no token
            message = ("unknown attribute (expected #[trigger] or #![all_triggers])"
                       if text == "#" else f"unexpected character {text[0]!r}")
            raise ParseError(message, SourceSpan(path, start, start + 1, line,
                                                 start - line_start + 1))
    return tokens
