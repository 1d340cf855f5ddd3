"""Benchmark inputs and their hand-written ground truth.

`corpus/` is a frozen copy of the repository's labelled test corpus, so later
edits to the tests do not change what the benchmark measures. Its
`labels.json` was written by hand: every corpus function verifies under the
default configuration, and the `survivors` are the only assert sites the
minimizer must keep.

Nothing here imports tunav: inputs are plain source text made from the seed,
and the expected verdicts come from the labels, never from a tunav run.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")

SYNTH_COPIES = 4
SYNTH_DELETIONS = 8  # of SYNTH_COPIES x (single-assert witnesses per copy)

_DECL = re.compile(
    r"^[ \t]*(?:broadcast[ \t]+)?(?:spec[ \t]+fn|proof[ \t]+fn|axiom[ \t]+fn|"
    r"group|sort|const)[ \t]+(\w+)", re.M)
_PROOF_FN = re.compile(r"^[ \t]*(?:broadcast[ \t]+)?proof[ \t]+fn[ \t]+(\w+)", re.M)
_ASSERT = re.compile(r"\bassert\b")


@dataclass(frozen=True)
class Source:
    path: str
    module: str
    text: str


@dataclass(frozen=True)
class Project:
    """Sources in the order they are handed to tunav, plus the user functions
    whose verdict is known: `expect[task] is True` means it must verify."""
    sources: tuple[Source, ...]
    expect: dict[str, bool]


def corpus_files() -> dict[str, str]:
    """Module name (file stem) -> source text, in sorted file order."""
    out = {}
    for name in sorted(os.listdir(CORPUS_DIR)):
        if name.endswith(".tv"):
            with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as fh:
                out[name[:-3]] = fh.read()
    return out


def labels() -> dict:
    with open(os.path.join(CORPUS_DIR, "labels.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _proof_fns(text: str) -> list[str]:
    return _PROOF_FN.findall(text)


def _matching(text: str, i: int, open_: str, close: str) -> int:
    """Index just past the bracket that closes the one at `text[i]`."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] == open_:
            depth += 1
        elif text[j] == close:
            depth -= 1
            if depth == 0:
                return j + 1
    raise ValueError(f"unbalanced {open_!r} at offset {i}")


def _body_span(text: str, fn: str) -> tuple[int, int]:
    m = re.search(rf"\bproof[ \t]+fn[ \t]+{fn}\b", text)
    if m is None:
        raise ValueError(f"no proof fn {fn}")
    start = text.index("{", m.end())
    return start, _matching(text, start, "{", "}")


def delete_only_assert(text: str, fn: str) -> str:
    """Remove the single `assert(...);` statement, and its line, from `fn`."""
    lo, hi = _body_span(text, fn)
    hits = list(_ASSERT.finditer(text, lo, hi))
    if len(hits) != 1:
        raise ValueError(f"{fn} has {len(hits)} asserts, expected 1")
    a = hits[0].start()
    end = text.index(";", _matching(text, text.index("(", a), "(", ")")) + 1
    line_start = text.rindex("\n", 0, a) + 1
    line_end = text.index("\n", end) + 1
    return text[:line_start] + text[line_end:]


def witness_candidates() -> list[tuple[str, str]]:
    """(module, fn) of labelled survivors that are the only assert of their
    function: deleting that assert leaves the function unprovable."""
    files = corpus_files()
    out = []
    for task, _ordinal, kind in labels()["survivors"]:
        module, fn = task.split("::")
        if kind != "assert":
            continue
        lo, hi = _body_span(files[module], fn)
        if len(_ASSERT.findall(files[module], lo, hi)) == 1:
            out.append((module, fn))
    return out


def corpus_project(seed: int) -> Project:
    """The corpus, with file order shuffled by the seed; everything verifies."""
    files = corpus_files()
    order = sorted(files)
    random.Random(seed).shuffle(order)
    sources = tuple(Source(f"{m}.tv", m, files[m]) for m in order)
    expect = {f"{m}::{fn}": True for m in order for fn in _proof_fns(files[m])}
    return Project(sources, expect)


def rename(text: str, names: set[str], suffix: str) -> str:
    """Suffix every whole-word occurrence of `names`. Renaming the same
    identifiers everywhere in a copy is an alpha-renaming, so verdicts keep."""
    pattern = re.compile(r"\b(" + "|".join(sorted(names, key=len, reverse=True)) + r")\b")
    return pattern.sub(lambda m: m.group(1) + suffix, text)


def synth_project(seed: int) -> Project:
    """SYNTH_COPIES renamed copies of the corpus in one project. Names resolve
    globally, so each copy suffixes every top-level name the corpus declares,
    in all of its files. SYNTH_DELETIONS (copy, witness) pairs, drawn by the
    seed, lose their only assert and are expected not to verify."""
    files = corpus_files()
    rng = random.Random(seed)
    declared = {name for text in files.values() for name in _DECL.findall(text)}
    candidates = [(c, m, fn) for c in range(SYNTH_COPIES)
                  for m, fn in witness_candidates()]
    deleted = set(rng.sample(candidates, SYNTH_DELETIONS))
    sources = []
    expect = {}
    for c in range(SYNTH_COPIES):
        suffix = f"_c{c}"
        for m, text in files.items():
            for fn in _proof_fns(text):
                if (c, m, fn) in deleted:
                    text = delete_only_assert(text, fn)
            module = m + suffix
            for fn in _proof_fns(text):
                expect[f"{module}::{fn}{suffix}"] = (c, m, fn) not in deleted
            sources.append(Source(f"c{c}/{m}.tv", module,
                                  rename(text, declared, suffix)))
    rng.shuffle(sources)
    return Project(tuple(sources), expect)


def minimize_expectation(sites: list[tuple[str, int]]) -> tuple[list[bool], set]:
    """From the minimizer's assert sites `(function, ordinal)` in scan order,
    the expected verdict of each trial and the expected removed set.

    Every site but a survivor is redundant, so its trial verifies and it is
    removed; a survivor's trial fails. A site in `vanish_with_parent` is
    never tried, because its enclosing assert-by is removed first."""
    lab = labels()
    survivors = {(fn, n) for fn, n, _kind in lab["survivors"]}
    vanish = {tuple(x) for x in lab["vanish_with_parent"]}
    trials = [s not in survivors for s in sites if s not in vanish]
    removed = set(sites) - survivors - vanish
    return trials, removed
