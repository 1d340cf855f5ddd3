"""What resolve builds, pinned instance by instance.

For the prelude plus every corpus file, the snapshot lists
`Program.instances` in order. Each instance gives its symbol, type
arguments, kind, body `broadcast use` paths and the symbols it demands in
order, then its whole `MonoFn.decl` tree with every field, the
`compare=False` ones (`ty`, `resolved`) included. It ends with the instance
set of a project made of two renamed copies of the corpus. A change to
resolve that is meant to be exact must leave it byte for byte. Regenerate it
only for an intended change of resolve's output:

    PYTHONPATH=src python tests/test_resolve_snapshot.py > tests/snapshots/resolve_dump.txt
"""

from __future__ import annotations

import glob
import os
import re

from test_parse_snapshot import dump_node
from test_resolve import liveness_digest

from tunav.driver import resolve_with_prelude
from tunav.prelude import load_prelude
from tunav.resolve import ResolveMemo, module_of
from tunav.syntax import parse_module

HERE = os.path.dirname(os.path.abspath(__file__))
SNAPSHOT = os.path.join(HERE, "snapshots", "resolve_dump.txt")


def corpus_texts() -> dict[str, str]:
    """Module name (file stem) -> source text, in sorted file order."""
    out = {}
    for path in sorted(glob.glob(os.path.join(HERE, "corpus", "*.tv"))):
        with open(path, encoding="utf-8") as fh:
            out[os.path.basename(path)[:-3]] = fh.read()
    return out


def demands_of(memo: ResolveMemo, program, sym: str) -> tuple[str, ...]:
    """The symbols instance `sym` demands, in order, as the memo recorded."""
    fn = program.instances[sym]
    return memo.instances[sym, id(program.symbols[fn.decl_path])].demands


def dump_corpus() -> list[str]:
    asts = [parse_module(text, f"corpus/{m}.tv", module=m)
            for m, text in corpus_texts().items()]
    memo = ResolveMemo()
    program, _ = resolve_with_prelude(asts, memo)
    files = {ast.module: ast.path for ast in load_prelude() + asts}
    out = []
    for sym, fn in program.instances.items():
        out.append(f"instance {sym}")
        out.append(f" targs [{', '.join(t.render() for t in fn.targs)}]"
                   f" kind={fn.kind} module={module_of(fn.decl_path)}")
        out.append(f" uses [{', '.join(fn.uses)}]")
        out.append(f" demands [{', '.join(demands_of(memo, program, sym))}]")
        dump_node(fn.decl, files[module_of(fn.decl_path)], " ", out)
    return out


def renamed_corpus(c: int):
    """Copy `c` of the corpus: every top-level name the corpus declares, in
    all of its files, and every module name gets the suffix `_c<c>`."""
    texts = corpus_texts()
    declared = {d.name for m, text in texts.items()
                for d in parse_module(text, f"{m}.tv", module=m).declarations}
    word = re.compile(r"\b(" + "|".join(sorted(declared, key=len, reverse=True))
                      + r")\b")
    suffix = f"_c{c}"
    return [parse_module(word.sub(lambda hit: hit.group(1) + suffix, text),
                         f"c{c}/{m}.tv", module=m + suffix)
            for m, text in texts.items()]


def synth_like_asts(copies: int = 2):
    """`copies` renamed copies of the corpus in one project."""
    return [ast for c in range(copies) for ast in renamed_corpus(c)]


def dump_synth() -> list[str]:
    order, instances_of = liveness_digest(resolve_with_prelude(synth_like_asts())[0])
    out = ["synth instances"] + [f" {sym}" for sym in order]
    out.append("synth instances_of")
    for path in sorted(instances_of):
        out.append(f" {path} [{', '.join(instances_of[path])}]")
    return out


def dump_all() -> str:
    return "\n".join(dump_corpus() + dump_synth()) + "\n"


def test_resolve_output_matches_snapshot():
    with open(SNAPSHOT, encoding="utf-8") as fh:
        want = fh.read()
    got = dump_all()
    if got != want:
        for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
            assert a == b, f"first difference at snapshot line {i + 1}"
    assert got == want


if __name__ == "__main__":
    print(dump_all(), end="")
