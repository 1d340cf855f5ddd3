"""Lexer for `.tv` sources (UTF-8, `//` line comments).

One compiled alternation of named groups, longest punctuation first, scans
the source with `finditer`. An integer literal is ASCII `[0-9]+`; an
identifier is a letter (`str.isalpha`) or `_` followed by word characters
(`\\w`, i.e. `str.isalnum` or `_`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "kw" | "punct" | "attr" | "eof"
    text: str
    start: int
    end: int
    line: int
    col: int


_TOKEN = re.compile("|".join([
    r"(?P<newline>\n)",
    r"(?P<skip>[ \t\r]+|//[^\n]*)",
    r"(?P<int>[0-9]+)",
    r"(?P<word>\w+)",
    "(?P<attr>" + "|".join(map(re.escape, (ALL_TRIGGERS_ATTR, TRIGGER_ATTR))) + ")",
    "(?P<punct>" + "|".join(map(re.escape, sorted(PUNCT, key=len, reverse=True))) + ")",
    r"(?P<bad>.)",
]))


def tokenize(source: str, path: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    line_start = 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        start, end = m.span()
        if kind == "newline":
            line += 1
            line_start = end
            continue
        if kind == "skip":
            continue
        text = m.group()
        col = start - line_start + 1
        # An identifier starts with a letter or `_`; `\w` also matches other
        # numeric characters (`²`, `٣`), and no token starts with those.
        if kind == "word" and not (text[0].isalpha() or text[0] == "_"):
            kind = "bad"
        if kind == "bad":
            message = ("unknown attribute (expected #[trigger] or #![all_triggers])"
                       if text == "#" else f"unexpected character {text[0]!r}")
            raise ParseError(message, SourceSpan(path, start, start + 1, line, col))
        if kind == "word":
            kind = "kw" if text in KEYWORDS else "ident"
        tokens.append(Token(kind, text, start, end, line, col))
    n = len(source)
    tokens.append(Token("eof", "", n, n, line, n - line_start + 1))
    return tokens
