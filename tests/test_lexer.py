"""Token positions and the spans of parse errors, pinned exactly: `line` is
1-based and counts `\\n` only, `col` is 1-based and counts characters (a tab
or a `\\r` is one), and the `eof` token sits at the end of the source. The
lexer is also checked against a frozen copy of the tokenizer that made one
object per token, on seeded random sources."""

import random
import re

import pytest

from tunav.errors import ParseError
from tunav.syntax import SourceSpan, parse_module
from tunav.syntax.lexer import (
    ALL_TRIGGERS_ATTR,
    KEYWORDS,
    PUNCT,
    TRIGGER_ATTR,
    position,
    tokenize,
)


def kind(key, text: str) -> str:
    """A token's kind, from its match key or its first character."""
    if key in KEYWORDS:
        return "kw"
    if key in PUNCT:
        return "punct"
    if key is not None:
        return "attr"
    if not text:
        return "eof"
    return "int" if "0" <= text[0] <= "9" else "ident"


def tokens(source: str) -> list[tuple]:
    """(kind, text, start, end, line, col, key) of each token."""
    keys, texts, starts, ends, newlines = tokenize(source, "t.tv")
    return [(kind(key, text), text, start, end, *position(newlines, start), key)
            for key, text, start, end in zip(keys, texts, starts, ends)]


def positions(source: str) -> list[tuple]:
    return [t[:6] for t in tokens(source)]


def error_span(source: str) -> tuple[str, SourceSpan]:
    with pytest.raises(ParseError) as e:
        parse_module(source, "t.tv")
    return e.value.message, e.value.span


def test_crlf_lines_and_columns():
    assert positions("proof fn f() {\r\n    assert(true);\r\n}\r\n") == [
        ("kw", "proof", 0, 5, 1, 1),
        ("kw", "fn", 6, 8, 1, 7),
        ("ident", "f", 9, 10, 1, 10),
        ("punct", "(", 10, 11, 1, 11),
        ("punct", ")", 11, 12, 1, 12),
        ("punct", "{", 13, 14, 1, 14),
        ("kw", "assert", 20, 26, 2, 5),
        ("punct", "(", 26, 27, 2, 11),
        ("kw", "true", 27, 31, 2, 12),
        ("punct", ")", 31, 32, 2, 16),
        ("punct", ";", 32, 33, 2, 17),
        ("punct", "}", 35, 36, 3, 1),
        ("eof", "", 38, 38, 4, 1),
    ]
    assert positions("a\r\n  b") == [
        ("ident", "a", 0, 1, 1, 1),
        ("ident", "b", 5, 6, 2, 3),
        ("eof", "", 6, 6, 2, 4),
    ]


def test_tab_is_one_column():
    assert positions("\tproof fn\tf(x:\tint) {}\n\t\tspec") == [
        ("kw", "proof", 1, 6, 1, 2),
        ("kw", "fn", 7, 9, 1, 8),
        ("ident", "f", 10, 11, 1, 11),
        ("punct", "(", 11, 12, 1, 12),
        ("ident", "x", 12, 13, 1, 13),
        ("punct", ":", 13, 14, 1, 14),
        ("ident", "int", 15, 18, 1, 16),
        ("punct", ")", 18, 19, 1, 19),
        ("punct", "{", 20, 21, 1, 21),
        ("punct", "}", 21, 22, 1, 22),
        ("kw", "spec", 25, 29, 2, 3),
        ("eof", "", 29, 29, 2, 7),
    ]


def test_comment_at_end_of_file_without_newline():
    toks = positions("proof fn f() {} // done")
    assert toks[-2] == ("punct", "}", 14, 15, 1, 15)
    assert toks[-1] == ("eof", "", 23, 23, 1, 24)
    assert parse_module("proof fn f() {} // done", "t.tv").declarations[0].name == "f"


@pytest.mark.parametrize("source, eof", [
    ("", (0, 0, 1, 1)),
    ("a\n", (2, 2, 2, 1)),
    ("x // c\n", (7, 7, 2, 1)),
    ("a\r\n", (3, 3, 2, 1)),
    ("\t", (1, 1, 1, 2)),
])
def test_eof_token_position(source, eof):
    t = positions(source)[-1]
    assert t[:2] == ("eof", "")
    assert t[2:] == eof


@pytest.mark.parametrize("source, message, span", [
    ("proof fn f() {\r\n\tassert(1 +);\r\n}",
     "expected expression, found ')'", (27, 28, 2, 12)),
    ("proof fn f() {\r\n\t$", "unexpected character '$'", (17, 18, 2, 2)),
    ("\tspec fn f() -> int { 1 }\r\n\t\tfoo",
     "expected declaration, found 'foo'", (29, 32, 2, 3)),
    ("spec fn f() -> bool {\r\n true } // end\r\n  #",
     "unknown attribute (expected #[trigger] or #![all_triggers])", (41, 42, 3, 3)),
    # at the end of the source: the eof token's span
    ("proof fn f() {", "expected statement, found ''", (14, 14, 1, 15)),
    ("proof fn f() { // open\r\n", "expected statement, found ''", (24, 24, 2, 1)),
])
def test_parse_error_spans(source, message, span):
    got_message, got_span = error_span(source)
    assert got_message == message
    assert (got_span.file, got_span.start, got_span.end, got_span.line,
            got_span.col) == ("t.tv", *span)


# -- a frozen copy of the tokenizer the lexer must keep agreeing with ---------


def _alternatives(texts) -> str:
    return "|".join(map(re.escape, sorted(texts, key=len, reverse=True)))


_REFERENCE_TOKEN = re.compile(
    r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*(?:"
    r"(?P<int>[0-9]+)"
    r"|(?P<kw>(?:" + _alternatives(KEYWORDS) + r")(?!\w))"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<uword>\w+)"
    r"|(?P<punct>" + _alternatives(PUNCT) + ")"
    r"|(?P<attr>" + _alternatives((ALL_TRIGGERS_ATTR, TRIGGER_ATTR)) + ")"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))")


def reference_tokens(source: str, path: str) -> list[tuple]:
    """(kind, text, start, end, line, col, key) of each token, as the lexer
    made them when it built one object per token, counting lines as it
    went."""
    tokens = []
    line = 1
    line_start = 0  # offset of the first character of `line`
    prev = 0  # end of the previous token
    for m in _REFERENCE_TOKEN.finditer(source):
        kind = m.lastgroup
        start, end = m.span(kind)
        if start != prev:
            nl = source.rfind("\n", prev, start)
            if nl >= 0:
                line += source.count("\n", prev, nl + 1)
                line_start = nl + 1
        prev = end
        text = source[start:end]
        col = start - line_start + 1
        if kind == "ident" or kind == "int":
            tokens.append((kind, text, start, end, line, col, None))
        elif kind == "kw" or kind == "punct" or kind == "attr":
            tokens.append((kind, text, start, end, line, col, text))
        elif kind == "uword" and text[0].isalpha():
            tokens.append(("ident", text, start, end, line, col, None))
        elif kind == "eof":
            tokens.append(("eof", "", start, end, line, col, None))
            break
        else:
            message = ("unknown attribute (expected #[trigger] or #![all_triggers])"
                       if text == "#" else f"unexpected character {text[0]!r}")
            raise ParseError(message, SourceSpan(path, start, start + 1, line, col))
    return tokens


_PIECES = (
    [*"abcxyzABCXYZ0123456789_", "é", "²", "٣", *PUNCT, TRIGGER_ATTR, ALL_TRIGGERS_ATTR,
     "#", "$", "// note", "\t", "\r", "\n", " ", "12abc", "0x1", "a1", "xé²", *KEYWORDS])
# characters that start no token, drawn less often so most sources lex whole
_RARE = {"²", "٣", "#", "$"}
_WEIGHTS = [10 if p in _RARE else 20 for p in _PIECES]


def random_source(rng: random.Random) -> str:
    source = "".join(rng.choices(_PIECES, _WEIGHTS, k=rng.randrange(40)))
    if rng.random() < 0.2:
        source += "// to the end, no newline"
    return source


def outcome(tokenizer, source: str):
    try:
        return tokenizer(source)
    except ParseError as e:
        return ("error", e.message, e.span)


def test_lexer_matches_the_frozen_tokenizer():
    rng = random.Random(2024)
    errors = 0
    for _ in range(3000):
        source = random_source(rng)
        got = outcome(tokens, source)
        assert got == outcome(lambda s: reference_tokens(s, "t.tv"), source), source
        errors += got[0] == "error"
    # both sides of the comparison are exercised
    assert 300 < errors < 2700
