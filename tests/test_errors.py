import pickle

import pytest

from tunav import errors
from tunav.errors import CycleError, TunavError
from tunav.syntax.ast import SourceSpan

SPAN = SourceSpan("m.tv", 4, 9, 2, 5)


def subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += subclasses(sub)
    return out


def make(cls, span):
    if issubclass(cls, CycleError):
        return cls("cyclic broadcast imports", ["b", "a"], span)
    return cls("something went wrong", span)


def test_every_error_class_is_covered():
    assert {c.__name__ for c in subclasses(TunavError)} >= {
        "TunavError", "ParseError", "ResolveError", "CycleError",
        "TriggerError", "BaselineFailure"}
    assert all(c.__module__ == errors.__name__ for c in subclasses(TunavError))


@pytest.mark.parametrize("span", [None, SPAN])
@pytest.mark.parametrize("cls", subclasses(TunavError), ids=lambda c: c.__name__)
def test_errors_survive_a_pickle_round_trip(cls, span):
    """A forked worker sends a task's error to the parent by pickle."""
    e = make(cls, span)
    back = pickle.loads(pickle.dumps(e, pickle.HIGHEST_PROTOCOL))
    assert type(back) is cls
    assert str(back) == str(e)
    assert back.message == e.message
    assert back.span == e.span
    assert getattr(back, "members", None) == getattr(e, "members", None)
