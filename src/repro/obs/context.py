"""Causal trace context: the (trace, span, parent) triple that rides
every message.

A :class:`TraceContext` names one node of a causal tree.  ``trace_id``
identifies the whole tree (one payment, one multihop route), ``span_id``
the current operation, and ``parent_id`` the operation that caused it —
empty for the root.  Contexts are immutable; crossing a boundary (a
message send, a nested span) derives a *child* whose ``parent_id`` is
the sender's ``span_id``.

Identifiers are 16-hex-char strings: a per-process random prefix plus a
monotone counter, so ids minted by different daemons never collide while
staying cheap to generate (no per-id entropy read).  The DES is
deterministic; trace ids are observability-only and never feed back into
protocol state, so the randomness does not perturb simulations.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Optional

__all__ = ["TraceContext", "new_trace_id", "new_span_id"]

# One entropy read per process; ids are prefix + counter after that.
_PREFIX = os.urandom(5).hex()
_COUNTER = itertools.count(1)


def new_span_id() -> str:
    """A fresh 16-hex-char span id, unique across processes."""
    return f"{_PREFIX}{next(_COUNTER) & 0xFFFFFF:06x}"


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (same generator as span ids)."""
    return new_span_id()


@dataclass(frozen=True)
class TraceContext:
    """Immutable causal coordinates for one operation."""

    trace_id: str
    span_id: str
    parent_id: str = ""

    @classmethod
    def root(cls) -> "TraceContext":
        """Start a new trace: fresh trace id, root span, no parent."""
        trace_id = new_trace_id()
        return cls(trace_id=trace_id, span_id=new_span_id(), parent_id="")

    def child(self) -> "TraceContext":
        """Derive the context for an operation caused by this one."""
        return TraceContext(trace_id=self.trace_id, span_id=new_span_id(),
                            parent_id=self.span_id)

    @classmethod
    def from_fields(cls, trace: str, span: str,
                    parent: str = "") -> Optional["TraceContext"]:
        """Rebuild a context from decoded wire fields; ``None`` when the
        trace id is empty (the untraced sentinel)."""
        if not trace:
            return None
        return cls(trace_id=trace, span_id=span, parent_id=parent)

    def __repr__(self) -> str:
        return (f"TraceContext({self.trace_id}/{self.span_id}"
                f"<-{self.parent_id or 'root'})")
