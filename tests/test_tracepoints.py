"""perfbench's trace points resolve against this tree and unpatch cleanly.

The traced benchmark run wraps one entry point per layer by name
(``perfbench/tracepoints.py``); :meth:`perfbench.spans.Recorder.wrap`
looks each name up with ``getattr``, so renaming or removing a wrapped
function breaks the traced run.  Installing both sides here turns that
into a tier-1 failure, and restoring them must leave every patched
attribute exactly as it was.
"""

from __future__ import annotations

from perfbench import spans, tracepoints


def test_install_resolves_every_entry_point_and_restore_undoes_it():
    recorder = spans.Recorder()
    try:
        tracepoints.install_server(recorder)
        tracepoints.install_client(recorder)
        patched = list(recorder._patches)
        assert patched
        for owner, attr, _ in patched:
            assert hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)
    finally:
        recorder.restore()
    for owner, attr, original in patched:
        if original is spans._ABSENT:
            assert attr not in vars(owner), (owner, attr)
        else:
            assert vars(owner)[attr] is original, (owner, attr)
