"""Lexer for `.tv` sources (UTF-8, `//` line comments).

`tokenize` makes no object per token: one compiled pattern of (skipped text,
token) pairs runs with `findall`, and the tokens come back as parallel lists
of match keys, texts and start and end offsets, so a token is its index.
Offsets are the running sum of the pairs' lengths. The pattern matches
punctuation longest first, and a keyword as a whole word. An integer literal
is ASCII `[0-9]+`; an identifier is a letter (`str.isalpha`) or `_` followed
by word characters (`\\w`, i.e. `str.isalnum` or `_`).

A token's match key is its text for a keyword, punctuation or attribute
token, `None` for an identifier, an integer literal and the `eof` token
(text ""). The parser tests and dispatches on that key alone, so `at("fn")`
is one compare and an identifier named like a keyword cannot exist. The
kind of a token follows from its key or its first character.

Lines and columns are not stored per token: `position` finds them with
`bisect` in the table of the source's newline offsets, for the tokens that
start a span. A line counts `\\n` only; a column counts characters from 1.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import accumulate, chain, count
from operator import add, itemgetter

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


def _alternatives(texts) -> str:
    return "|".join(map(re.escape, sorted(texts, key=len, reverse=True)))


# Every keyword, punctuation and attribute text, mapped to itself: the match
# key of a token is `_KEYED.get(text)`.
_KEYED = {text: text for text in (*KEYWORDS, *PUNCT, TRIGGER_ATTR, ALL_TRIGGERS_ATTR)}

# The skipped text, then exactly one token: an integer literal, a word (a
# keyword if `_KEYED` holds it, else an identifier if it starts with a
# letter or `_`), punctuation, an attribute, the empty end of the source, or
# one character that starts no token. Only the end is empty, and it always
# matches there, so `findall` skips no character.
_TOKEN = re.compile(
    r"([ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*)("
    r"[0-9]+"
    r"|\w+"
    r"|" + _alternatives(PUNCT)
    + r"|" + _alternatives((ALL_TRIGGERS_ATTR, TRIGGER_ATTR))
    + r"|\Z"
    r"|.)")


def tokenize(source: str, path: str
             ) -> tuple[list[str | None], list[str], list[int], list[int], list[int]]:
    """The tokens of `source` as parallel lists `(keys, texts, starts, ends)`,
    ending with the `eof` token (text "") at its end, then the `newlines`
    table for `position`."""
    pairs = _TOKEN.findall(source)
    if len(pairs) > 1 and not pairs[-2][1]:
        # after an end match that skipped text, `findall` matches the empty
        # end once more
        pairs.pop()
    texts = list(map(itemgetter(1), pairs))
    # the end of each skipped text is a token's start, the end of each token
    # the next one's skipped text's start
    offsets = list(accumulate(map(len, chain.from_iterable(pairs))))
    starts = offsets[::2]
    # -1, then the offset of each "\n", so line k + 1 starts after
    # newlines[k]; the last sum is the end of the last line, no newline
    newlines = list(map(add, accumulate(map(len, source.split("\n")), initial=-1), count()))
    newlines.pop()
    bad = [text for text in set(texts).difference(_KEYED) if not _starts_word(text)]
    if bad:
        # the first character that starts no token: an unknown character, or
        # a numeric one such as `²` or `٣` that begins a word
        i = min(map(texts.index, bad))
        text, start = texts[i], starts[i]
        message = ("unknown attribute (expected #[trigger] or #![all_triggers])"
                   if text == "#" else f"unexpected character {text[0]!r}")
        raise ParseError(message, SourceSpan(path, start, start + 1,
                                             *position(newlines, start)))
    return list(map(_KEYED.get, texts)), texts, starts, offsets[1::2], newlines


def _starts_word(text: str) -> bool:
    """Whether an unkeyed token's text is an identifier, an integer literal
    or the end of the source."""
    return not text or text[0] == "_" or text[0].isalpha() or "0" <= text[0] <= "9"


def position(newlines: list[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column of `offset`, from `tokenize`'s newline
    table: the line is one more than the number of newlines before
    `offset`."""
    line = bisect_left(newlines, offset)
    return line, offset - newlines[line - 1]
