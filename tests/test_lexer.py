"""Token positions and the spans of parse errors, pinned exactly: `line` is
1-based and counts `\\n` only, `col` is 1-based and counts characters (a tab
or a `\\r` is one), and the `eof` token sits at the end of the source."""

import pytest

from tunav.errors import ParseError
from tunav.syntax import SourceSpan, parse_module
from tunav.syntax.lexer import tokenize


def positions(source: str) -> list[tuple]:
    return [(t.kind, t.text, t.start, t.end, t.line, t.col)
            for t in tokenize(source, "t.tv")]


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
    t = tokenize(source, "t.tv")[-1]
    assert (t.kind, t.text) == ("eof", "")
    assert (t.start, t.end, t.line, t.col) == eof


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
