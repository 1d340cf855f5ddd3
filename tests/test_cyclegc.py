"""The cycle collector's state around a parse and a run (`tunav.cyclegc`):
paused inside, resumed after, however the call ends, and left alone when
the caller disabled it. That nothing inside makes a reference cycle is
pinned by `test_driver.py::test_a_run_leaves_no_reference_cycles`."""

import gc
import glob

import pytest

from tunav import driver
from tunav.driver import RunConfig, load_sources, verify_program
from tunav.errors import ParseError, ResolveError
from tunav.syntax import parse_module
from tunav.syntax.parser import _Parser

CORPUS = sorted(glob.glob("tests/corpus/*.tv"))
UNRESOLVED = "proof fn f() { assert(nowhere(1)); }"


def record_collector(monkeypatch) -> list[tuple[bool, bool]]:
    """Record `(in this process's share of a fork-join, collector enabled)`
    at each `generate_obligations` call this process makes."""
    seen = []
    in_share = [False]

    def generate_obligations(task, run):
        seen.append((in_share[0], gc.isenabled()))
        return original(task, run)

    def claim(*args):
        in_share[0] = True
        try:
            return original_claim(*args)
        finally:
            in_share[0] = False

    original, original_claim = driver.generate_obligations, driver._claim
    monkeypatch.setattr(driver, "generate_obligations", generate_obligations)
    monkeypatch.setattr(driver, "_claim", claim)
    return seen


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_run_pauses_the_collector(monkeypatch, jobs):
    asts = load_sources(CORPUS)
    seen = record_collector(monkeypatch)
    assert gc.isenabled()
    assert verify_program(asts, RunConfig(jobs=jobs)).all_verified
    assert gc.isenabled()
    assert seen and not any(enabled for _, enabled in seen)
    # at jobs=2 this process proves a share of the tasks beside the worker
    assert any(in_share for in_share, _ in seen) == (jobs == 2)


def test_a_parse_pauses_the_collector(monkeypatch):
    seen = []

    def module(self, modname):
        seen.append(gc.isenabled())
        return original(self, modname)

    original = _Parser.module
    monkeypatch.setattr(_Parser, "module", module)
    with open(CORPUS[0], encoding="utf-8") as fh:
        parse_module(fh.read(), CORPUS[0])
    assert seen == [False]
    assert gc.isenabled()


def test_the_collector_is_resumed_when_a_call_raises():
    with pytest.raises(ParseError):
        parse_module("proof fn f( {", "bad.tv")
    assert gc.isenabled()
    with pytest.raises(ResolveError):
        verify_program([parse_module(UNRESOLVED, "bad.tv")], RunConfig())
    assert gc.isenabled()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_callers_disabled_collector_stays_disabled(monkeypatch, jobs):
    seen = record_collector(monkeypatch)
    gc.disable()
    try:
        asts = load_sources(CORPUS)
        assert not gc.isenabled()
        assert verify_program(asts, RunConfig(jobs=jobs)).all_verified
        assert not gc.isenabled()
        with pytest.raises(ResolveError):
            verify_program([parse_module(UNRESOLVED, "bad.tv")], RunConfig())
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen and not any(enabled for _, enabled in seen)


def test_no_other_collector_setting_changes():
    """The pause sets nothing but the collector's flag: no thresholds, and
    no frozen objects."""
    before = gc.get_threshold(), gc.get_freeze_count()
    asts = load_sources(CORPUS)
    for jobs in (1, 2):
        verify_program(asts, RunConfig(jobs=jobs))
    assert (gc.get_threshold(), gc.get_freeze_count()) == before


def test_the_young_collection_runs_inside_the_call():
    """The first allocation after the pause ends starts a collection of the
    youngest generation, over all the call left alive. It runs before the
    call returns, so its time is the call's, not its caller's."""
    asts = load_sources(CORPUS)
    for jobs in (1, 2):
        verify_program(asts, RunConfig(jobs=jobs))
        assert gc.get_count()[0] < gc.get_threshold()[0]
