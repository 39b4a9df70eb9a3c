"""In-memory spans around the calls the benchmark makes into each layer.

The benchmark touches no simulator source: in a traced run it swaps a
timing wrapper onto each public method it measures (and restores the
original afterwards), so a span is recorded at every layer boundary.
Spans carry a name, start, end, parent, the cell or session id they
belong to, and the LeNet-5 layer that cell strikes.  An untraced run uses
:class:`NullTracer`, whose hooks do nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, List, Optional

_MISSING = object()


class NullTracer:
    """The untraced run: every hook is a no-op."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs):
        yield None

    def begin(self, name: str, **attrs) -> None:
        pass

    def end(self) -> None:
        pass

    def set_group(self, group: Optional[str], layer: Optional[str]) -> None:
        pass

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


class Tracer(NullTracer):
    """Records spans; :meth:`wrap` instruments a method."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[dict] = []
        self.group: Optional[str] = None
        self.layer: Optional[str] = None
        self._stack: List[dict] = []
        self._wraps: List[tuple] = []
        self._installed: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, **attrs) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        record = {"id": len(self.spans), "name": name, "start": self.clock(),
                  "end": None, "parent": parent, "group": self.group,
                  "layer": self.layer, **attrs}
        self.spans.append(record)
        self._stack.append(record)
        return record

    def end(self) -> dict:
        record = self._stack.pop()
        record["end"] = self.clock()
        return record

    @contextmanager
    def span(self, name: str, **attrs):
        record = self.begin(name, **attrs)
        try:
            yield record
        finally:
            # Close anything a hook left open inside this span first.
            while self._stack and self._stack[-1] is not record:
                self.end()
            self.end()

    def set_group(self, group: Optional[str], layer: Optional[str]) -> None:
        """The cell or session id (and struck layer) new spans carry."""
        self.group = group
        self.layer = layer

    # -- instrumentation ---------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Register ``owner.attr`` to be timed as span ``name``;
        ``after(record, args, kwargs, result)`` may add attributes to the
        span once the call returns."""
        self._wraps.append((owner, attr, name, after))

    def install(self) -> None:
        for owner, attr, name, after in self._wraps:
            self._installed.append(
                (owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr,
                    _timed(self, getattr(owner, attr), name, after))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, saved = self._installed.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def closed(self) -> List[dict]:
        """Every finished span."""
        return [s for s in self.spans if s["end"] is not None]


def _timed(tracer: Tracer, original: Callable, name: str,
           after: Optional[Callable]) -> Callable:
    def timed(*args, **kwargs):
        with tracer.span(name) as record:
            result = original(*args, **kwargs)
            if after is not None:
                after(record, args, kwargs, result)
        return result

    return timed
