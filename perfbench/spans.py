"""In-memory spans around calls into the program's layers.

A :class:`Recorder` patches named functions and methods so that each
call records one span: name, start, end, the request it belongs to, the
span that was open when it started (its parent), and a few attributes
such as byte counts.  Nothing under ``src/`` knows about it; the
benchmark's server launcher and its load generator install it around the
public entry points they want to see.

Request ids: a span opened with ``request="begin"`` while no other span
is open on its thread starts a new request; every span opened on that
thread until a ``request="end"`` span closes belongs to it.  The server
dispatches each request synchronously on its event loop, so nothing
interleaves inside one request.

Self time is a span's duration minus the part of it its child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Iterable, Sequence

# One recorded span: [name, start, end, request id or None, parent index
# or -1, attribute dict].  Lists, not objects, so a dump is plain JSON.
NAME, START, END, REQ, PARENT, ATTRS = range(6)


class Recorder:
    """Span log for one process, with reversible function patches."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_request = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ------------------------------------------------
    def _state(self) -> Any:
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.request = None
        return state

    def begin(self, name: str, request: str | None = None, **attrs: Any) -> int:
        """Open a span on this thread; returns its index."""
        state = self._state()
        if request == "begin" and not state.stack:
            with self._lock:
                self._next_request += 1
                state.request = self._next_request
        span = [name, self.clock(), 0.0, state.request,
                state.stack[-1] if state.stack else -1, attrs]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        state.stack.append(index)
        return index

    def end(self, index: int, request: str | None = None) -> None:
        """Close the innermost span, which must be ``index``."""
        span = self.spans[index]
        span[END] = self.clock()
        state = self._state()
        state.stack.pop()
        if request == "end" and not state.stack:
            state.request = None

    def bump(self, key: str, amount: float = 1) -> None:
        """Add to a count on the innermost open span of this thread.

        Counts only matter inside spans (every trace point that counts is
        reached from one), so a bump with no span open is dropped.
        """
        state = self._state()
        if state.stack:
            attrs = self.spans[state.stack[-1]][ATTRS]
            attrs[key] = attrs.get(key, 0) + amount

    # -- patching ----------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        request: str | None = None,
        attrs: Callable[[tuple, dict, Any], dict] | None = None,
        flatten: bool = False,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``attrs(args, kwargs, result)`` adds attributes once the call
        returns.  With ``flatten`` a call made while a span of the same
        name is already open on this thread records nothing (an outer
        kernel call that delegates to another counts once).
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if flatten:
                stack = recorder._state().stack
                if stack and recorder.spans[stack[-1]][NAME] == name:
                    return original(*args, **kwargs)
            index = recorder.begin(name, request)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(index, request)
            if attrs is not None:
                recorder.spans[index][ATTRS].update(attrs(args, kwargs, result))
            return result

        self._patch(owner, attr, original, traced)

    def count_calls(self, owner: Any, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` on the innermost open span."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            recorder.bump(key)
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        # Remember the owner's own attribute (or its absence), so restore
        # brings back an inherited method by deleting the shadow.
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


_ABSENT = object()


# ----------------------------------------------------------------------
# Analysis helpers.
# ----------------------------------------------------------------------
def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered(children.get(i, ()), span[START], span[END])
        for i, span in enumerate(spans)
    ]
