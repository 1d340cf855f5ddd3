"""The parser's output, pinned node by node.

`Expr.__eq__` ignores spans, inferred types and display flags, so a
parse/render round trip cannot see a shifted span or a lost flag. This test
dumps every node of each corpus and prelude file with every field, the
`compare=False` ones included, and compares the dump with a snapshot
recorded from an earlier parser. Regenerate it only for an intended change
of the parser's output:

    PYTHONPATH=src python tests/test_parse_snapshot.py > tests/snapshots/parse_dump.txt
"""

from __future__ import annotations

import dataclasses
import glob
import os
from importlib import resources

from tunav.driver import load_sources
from tunav.prelude import PRELUDE_FILES
from tunav.syntax import SourceSpan, Type, parse_module

HERE = os.path.dirname(os.path.abspath(__file__))
SNAPSHOT = os.path.join(HERE, "snapshots", "parse_dump.txt")


def sources() -> list[tuple[str, str, str | None]]:
    """(path, text, module override) of every corpus and prelude file."""
    out = []
    for path in sorted(glob.glob(os.path.join(HERE, "corpus", "*.tv"))):
        with open(path, encoding="utf-8") as fh:
            out.append((f"corpus/{os.path.basename(path)}", fh.read(), None))
    for fname, module in PRELUDE_FILES:
        text = resources.files("tunav.prelude").joinpath(fname).read_text()
        out.append((f"<prelude>/{fname}", text, module))
    return out


def scalar(v, path: str) -> str | None:
    """The one-line form of a leaf value, or None for a node or a list. A
    span names its file only if that is not `path`, the file parsed."""
    if isinstance(v, SourceSpan):
        file = "" if v.file == path else v.file
        return f"{file}@{v.start}-{v.end}:{v.line}:{v.col}"
    if isinstance(v, Type):
        return v.render()
    if dataclasses.is_dataclass(v) or isinstance(v, list):
        return None
    return repr(v)


def dump_node(node, path: str, indent: str, out: list[str]):
    """`node` and, indented below it, each of its child nodes, every field
    named."""
    leaves, children = [], []
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        text = scalar(v, path)
        if text is not None:
            leaves.append(f"{f.name}={text}")
        else:
            children.append((f.name, v))
    out.append(f"{indent}{type(node).__name__} {' '.join(leaves)}")
    for name, v in children:
        if isinstance(v, list):
            out.append(f"{indent} .{name} [{len(v)}]")
            for item in v:
                text = scalar(item, path)
                if text is not None:
                    out.append(f"{indent}  {text}")
                else:
                    dump_node(item, path, indent + "  ", out)
        else:
            out.append(f"{indent} .{name}")
            dump_node(v, path, indent + "  ", out)


def dump(ast) -> str:
    out: list[str] = []
    dump_node(ast, ast.path, "", out)
    return "\n".join(out) + "\n"


def dump_all() -> str:
    return "".join(dump(parse_module(text, path, module=module))
                   for path, text, module in sources())


def test_parse_output_matches_snapshot():
    with open(SNAPSHOT, encoding="utf-8") as fh:
        want = fh.read()
    got = dump_all()
    if got != want:
        for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
            assert a == b, f"first difference at snapshot line {i + 1}"
    assert got == want


def test_sources_read_line_endings_as_text_mode_does(tmp_path):
    """`load_sources` decodes the bytes itself (to name a bad one) and turns
    every line ending into `\\n`, as `open(path, encoding="utf-8")` does."""
    lf = "proof fn f()\n{\n    assert(1 + 1 == 2);\n}\n"
    for name, ending in [("crlf", "\r\n"), ("cr", "\r")]:
        p = tmp_path / f"{name}.tv"
        p.write_bytes(lf.replace("\n", ending).encode())
        with open(p, encoding="utf-8") as fh:
            text = fh.read()
        [ast] = load_sources([str(p)])
        assert text == lf
        assert dump(ast) == dump(parse_module(text, str(p)))


if __name__ == "__main__":
    print(dump_all(), end="")
