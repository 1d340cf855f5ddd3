"""What the engine decides, pinned obligation by obligation.

For every obligation of the corpus under both trigger strategies, of the
corpus without the default prelude, and of the prelude alone, the snapshot
holds its status, the limit that ended it, its sorted used core, its
instantiations per fact, and its rounds and splits. A change to the engine that is meant to be exact (faster, same
answers) must leave it byte for byte. Regenerate it only for an intended
change of what the engine decides:

    PYTHONPATH=src python tests/test_outcome_snapshot.py > tests/snapshots/outcomes.txt
"""

from __future__ import annotations

import glob
import os

from tunav import triggers as trig
from tunav.driver import RunConfig, load_sources, verify_program

HERE = os.path.dirname(os.path.abspath(__file__))
SNAPSHOT = os.path.join(HERE, "snapshots", "outcomes.txt")
CORPUS = sorted(glob.glob(os.path.join(HERE, "corpus", "*.tv")))


def span_text(span) -> str:
    return "-" if span is None else f"{span.file}:{span.line}:{span.col}"


def dump_run(label: str, run) -> list[str]:
    out = []
    for task in sorted(run.results):
        for site, o in run.results[task].obligations:
            core = sorted(f"{c.kind}:{c.path}@{span_text(c.span)}"
                          for c in o.used_core)
            inst = sorted(f"{k}={n}" for k, n in o.instantiations.items())
            out.append(
                f"{label} {task} {site.kind}#{site.index}@{span_text(site.span)}"
                f" {o.status} reason={o.reason} rounds={o.rounds_used}"
                f" splits={o.splits_used}\n"
                f"  inst {' '.join(inst) or '-'}\n"
                f"  core {' '.join(core) or '-'}")
    return out


def dump_all() -> str:
    asts = load_sources(CORPUS)
    lines = []
    for strategy in (trig.CONSERVATIVE, trig.ALL_TRIGGERS):
        lines += dump_run(f"corpus/{strategy}",
                          verify_program(asts, RunConfig(strategy=strategy)))
    # without the default group some functions fail: this section pins the
    # failed outcomes, the saturated consistent branches and their arithmetic
    lines += dump_run("corpus/no-default-prelude",
                      verify_program(asts, RunConfig(no_default_prelude=True)))
    lines += dump_run("prelude", verify_program([], RunConfig()))
    # corpus paths are named from the tests directory, wherever it is
    return "\n".join(lines).replace(HERE, "tests") + "\n"


def test_outcomes_match_snapshot():
    with open(SNAPSHOT, encoding="utf-8") as fh:
        want = fh.read()
    got = dump_all()
    if got != want:
        for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
            assert a == b, f"first difference at snapshot line {i + 1}"
    assert got == want


if __name__ == "__main__":
    print(dump_all(), end="")
