from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from tunav.syntax.ast import SourceSpan


class TunavError(Exception):
    """Base for all user-facing errors; carries an optional source span."""

    def __init__(self, message: str, span: "SourceSpan | None" = None):
        self.message = message
        self.span = span
        super().__init__(self.render())

    def render(self) -> str:
        if self.span is not None:
            return f"{self.span.file}:{self.span.line}:{self.span.col}: {self.message}"
        return self.message


class ParseError(TunavError):
    pass


class ResolveError(TunavError):
    pass


class CycleError(ResolveError):
    """A strongly connected component of proof fn dependencies: the
    broadcast lemmas each imports and the proof fns each calls."""

    def __init__(self, message: str, members: list[str], span: "SourceSpan | None" = None):
        self.base_message = message
        self.members = sorted(members)
        super().__init__(f"{message}: {{{', '.join(self.members)}}}", span)

    def __reduce__(self):
        # `Exception` pickles `(cls, args)`, and `args` holds only the
        # rendered message, which this constructor cannot take back
        return type(self), (self.base_message, self.members, self.span)


class TriggerError(TunavError):
    pass


class BaselineFailure(TunavError):
    """Minimization requires the input program to verify before any removal."""
