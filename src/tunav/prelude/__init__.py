"""The embedded standard library: container sorts with core axioms in an
auto-imported default group, plus proven broadcast lemmas in opt-in
group_<type>_properties groups."""

from __future__ import annotations

import functools
from importlib import resources

from tunav.syntax import ProgramAst, parse_module

PRELUDE_FILES = (
    ("core.tv", "prelude::core"),
    ("seq.tv", "prelude::seq"),
    ("set.tv", "prelude::set"),
    ("map.tv", "prelude::map"),
    ("multiset.tv", "prelude::multiset"),
)


@functools.cache
def _parsed_prelude() -> tuple[ProgramAst, ...]:
    return tuple(
        parse_module(resources.files("tunav.prelude").joinpath(fname).read_text(),
                     f"<prelude>/{fname}", module=module)
        for fname, module in PRELUDE_FILES)


def load_prelude() -> list[ProgramAst]:
    """The embedded prelude modules (verified by the test suite and by
    `tunav verify --prelude-only`). The sources are parsed once per process;
    every call returns a new list of the same ASTs, which the pipeline never
    modifies."""
    return list(_parsed_prelude())
