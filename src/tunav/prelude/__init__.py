"""The embedded standard library: container sorts with core axioms in an
auto-imported default group, plus proven broadcast lemmas in opt-in
group_<type>_properties groups."""

from __future__ import annotations

import functools
from importlib import resources
from typing import TYPE_CHECKING

from tunav.syntax import ProgramAst, parse_module

if TYPE_CHECKING:
    from tunav.resolve import PreludeStore

PRELUDE_FILES = (
    ("core.tv", "prelude::core"),
    ("seq.tv", "prelude::seq"),
    ("set.tv", "prelude::set"),
    ("map.tv", "prelude::map"),
    ("multiset.tv", "prelude::multiset"),
)


@functools.cache
def prelude_store() -> PreludeStore:
    """The store of this process's prelude: its parsed modules, the
    resolve and lowering work on them that no program can change, and the
    results of the prelude's tasks. Clearing this cache drops all of it."""
    from tunav.resolve import PreludeStore  # resolve imports this package

    return PreludeStore(tuple(
        parse_module(resources.files("tunav.prelude").joinpath(fname).read_text(),
                     f"<prelude>/{fname}", module=module)
        for fname, module in PRELUDE_FILES))


def load_prelude() -> list[ProgramAst]:
    """The embedded prelude modules. Every `verify_program` run includes
    their lemmas among its tasks, beside the user's, and `tunav verify
    --prelude-only` verifies them alone. A lemma whose contexts hold only
    prelude facts is proved once per process and configuration; later runs
    read its result from the prelude store (`driver._verify_tasks`). The
    sources are parsed once per process; every call returns a new list of
    the same ASTs, which the pipeline never modifies."""
    return list(prelude_store().asts)
