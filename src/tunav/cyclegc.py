"""Pausing Python's cycle collector for a parse or a run.

The pipeline makes no reference cycles: everything a parse or a run builds
is freed by reference counting, on every path that pauses the collector
(`test_driver.py::test_a_run_leaves_no_reference_cycles`). So each
collection the collector starts inside one is a scan that frees nothing.
`parse_module` and `verify_program` run inside `paused()` instead.

The pause changes no process-wide setting but the flag itself, and only
while it lasts. A caller that disabled the collector keeps it disabled, and
a worker forked inside a run inherits the pause and leaves by `os._exit`.
Objects allocated while paused still count toward the young generation's
threshold, so if the call left more than that alive, the first allocation
after the pause ends, in `paused`'s own exit, starts a collection over
them: that work stays inside the call (`test_cyclegc.py`). On threads, one
run's end can resume the collector while another thread's run is still
inside, which is harmless because no run makes cycles."""

from __future__ import annotations

import contextlib
import gc


@contextlib.contextmanager
def paused():
    """Disable the cycle collector for the block, unless it already is."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
