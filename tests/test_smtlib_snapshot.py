"""What `--emit-smtlib` writes, pinned script by script.

For the corpus resolved with the prelude, the obligations of every proof fn
are written as `smtlib.emit_all` names them, under both trigger strategies
at the default fuel (352 scripts). The snapshot holds one line per script,
`<strategy>/<script name> <sha256>`. A change to emission that is meant to
be exact must leave it byte for byte. Regenerate it only for an intended
change of what a script says:

    PYTHONPATH=src python tests/test_smtlib_snapshot.py > tests/snapshots/smtlib_digests.txt

The same scripts are also checked to be well formed: balanced parentheses,
one `(check-sat)`, and every symbol an `assert` uses either declared exactly
once, with the arity it is used at, or bound by an enclosing quantifier.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import os
import re
import tempfile
from collections import Counter

from tunav import triggers as trig
from tunav.driver import RunConfig, load_sources, resolve_with_prelude
from tunav.smtlib import emit_all
from tunav.vcgen import VcgenRun, generate_obligations

HERE = os.path.dirname(os.path.abspath(__file__))
SNAPSHOT = os.path.join(HERE, "snapshots", "smtlib_digests.txt")
CORPUS = sorted(glob.glob(os.path.join(HERE, "corpus", "*.tv")))
STRATEGIES = (trig.CONSERVATIVE, trig.ALL_TRIGGERS)


@functools.lru_cache(maxsize=None)
def scripts() -> tuple[tuple[str, str], ...]:
    """(`<strategy>/<script name>`, text) of every script, sorted by name."""
    program, registry = resolve_with_prelude(load_sources(CORPUS))
    out = []
    for strategy in STRATEGIES:
        run = VcgenRun(program, registry, RunConfig(strategy=strategy))
        obs = [ob for task in program.proof_fns()
               for ob in generate_obligations(task, run)]
        with tempfile.TemporaryDirectory() as directory:
            emit_all(obs, directory)
            for name in sorted(os.listdir(directory)):
                with open(os.path.join(directory, name), encoding="utf-8") as fh:
                    out.append((f"{strategy}/{name}", fh.read()))
    return tuple(out)


def dump_all() -> str:
    return "".join(f"{name} {hashlib.sha256(text.encode()).hexdigest()}\n"
                   for name, text in scripts())


def test_scripts_match_snapshot():
    with open(SNAPSHOT, encoding="utf-8") as fh:
        want = fh.read()
    got = dump_all()
    if got != want:
        for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
            assert a == b, f"first difference at snapshot line {i + 1}"
    assert got == want
    assert len(scripts()) == 352


_TOKEN = re.compile(r"\(|\)|\|[^|]*\||[^\s()|]+")
BUILTIN_SORTS = {"Int", "Bool"}
BUILTIN_OPS = {"and", "or", "not", "=>", "=", "+", "-", "*", "mod",
               "<", "<=", ">", ">="}


def parse_sexprs(text: str) -> list:
    """The top-level s-expressions of `text`, atoms as strings; ValueError
    if its parentheses do not balance."""
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ValueError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ValueError(f"{len(stack) - 1} unclosed '('")
    return stack[0]


def script_problems(text: str) -> list[str]:
    """What makes `text` an ill-formed script; empty if nothing does."""
    try:
        commands = parse_sexprs(text)
    except ValueError as e:
        return [str(e)]
    problems = []
    checks = sum(c == ["check-sat"] for c in commands)
    if checks != 1:
        problems.append(f"{checks} (check-sat) commands")
    sorts: Counter = Counter()
    names: Counter = Counter()
    arity: dict[str, int] = {}
    for c in commands:
        if c[0] == "declare-sort":
            sorts[c[1]] += 1
        elif c[0] in ("declare-const", "declare-fun"):
            names[c[1]] += 1
            arity[c[1]] = 0 if c[0] == "declare-const" else len(c[2])
    problems += [f"{s} declared {n} times"
                 for s, n in [*sorts.items(), *names.items()] if n != 1]

    def sort(s):
        if s not in BUILTIN_SORTS and s not in sorts:
            problems.append(f"undeclared sort {s}")

    def term(t, bound: frozenset):
        if isinstance(t, str):
            if not (t in bound or t in ("true", "false") or t.isdigit()
                    or arity.get(t) == 0):
                problems.append(f"undeclared constant {t}")
            return
        head, args = t[0], t[1:]
        if head in ("forall", "exists"):
            for _, s in args[0]:
                sort(s)
            term(args[1], bound | {v for v, _ in args[0]})
        elif head == "!":
            term(args[0], bound)
            for key, value in zip(args[1::2], args[2::2]):
                if key == ":pattern":
                    for p in value:
                        term(p, bound)
                elif key != ":named":
                    problems.append(f"unknown attribute {key}")
        elif head in BUILTIN_OPS or arity.get(head) == len(args) > 0:
            for a in args:
                term(a, bound)
        else:
            problems.append(f"undeclared function {head}/{len(args)}")

    for c in commands:
        if c[0] == "declare-const":
            sort(c[2])
        elif c[0] == "declare-fun":
            for s in c[2] + [c[3]]:
                sort(s)
        elif c[0] == "assert":
            term(c[1], frozenset())
    return problems


def test_scripts_are_well_formed():
    bad = {name: problems for name, text in scripts()
           if (problems := script_problems(text))}
    assert not bad


def test_script_check_finds_what_is_missing():
    good = ("(declare-sort S 0)\n(declare-const c S)\n(declare-fun f (S) Int)\n"
            "(assert (! (forall ((|?x| S)) (! (> (f |?x|) 0) :pattern ((f |?x|))))"
            " :named a))\n(assert (= (f c) (- 1)))\n(check-sat)\n")
    assert script_problems(good) == []
    assert script_problems(good.replace("(declare-const c S)\n", "")) == [
        "undeclared constant c"]
    assert script_problems(good.replace("(declare-sort S 0)\n", "")) == [
        "undeclared sort S"] * 3
    assert script_problems(good + "(declare-const c S)\n") == [
        "c declared 2 times"]
    assert script_problems(good.replace("(f c)", "(f c c)")) == [
        "undeclared function f/2"]
    assert script_problems(good.replace("(f |?x|) 0", "(f |?y|) 0")) == [
        "undeclared constant |?y|"]
    assert script_problems(good.replace("(check-sat)\n", "")) == [
        "0 (check-sat) commands"]
    assert script_problems(good + ")") == ["unbalanced ')'"]


if __name__ == "__main__":
    print(dump_all(), end="")
