"""Cooperative cancellation for long-running flows.

The job service must be able to abandon a queued or running job without
killing worker processes mid-write.  The mechanism is a context-local
:class:`CancelToken`: the scheduler installs one around a job with
:func:`cancel_scope`, producer loops (the shard dispatcher between
runs and shards, the flow runner between P&R stages) call
:func:`check_cancelled` at safe points, and anyone holding the token —
typically an HTTP cancel request on another thread — trips it with
``token.cancel()``.  Tripping raises :class:`ExecCancelled` at the next
checkpoint; in-flight pool shards are left to finish (their results are
discarded) rather than killed.

Tokens travel through a ``contextvars.ContextVar``, so nested scopes
and concurrent jobs on different scheduler threads never see each
other's tokens, and code outside any scope pays a single dict lookup.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional


class ExecCancelled(Exception):
    """The surrounding cancel scope was tripped."""


class CancelToken:
    """One cancellable unit of work (thread-safe)."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: Optional[str] = None

    def cancel(self, reason: Optional[str] = None) -> None:
        """Trip the token; idempotent (the first reason wins)."""
        if not self._event.is_set():
            self._reason = reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> Optional[str]:
        return self._reason

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise ExecCancelled(self._reason or "cancelled")


_CURRENT: ContextVar[Optional[CancelToken]] = ContextVar(
    "repro_cancel_token", default=None)


def current_token() -> Optional[CancelToken]:
    """The innermost active token, or None outside any scope."""
    return _CURRENT.get()


def check_cancelled() -> None:
    """Checkpoint: raise :class:`ExecCancelled` if the scope tripped."""
    token = _CURRENT.get()
    if token is not None:
        token.raise_if_cancelled()


@contextmanager
def cancel_scope(token: Optional[CancelToken] = None
                 ) -> Iterator[CancelToken]:
    """Install ``token`` (or a fresh one) as the context's cancel token."""
    if token is None:
        token = CancelToken()
    handle = _CURRENT.set(token)
    try:
        yield token
    finally:
        _CURRENT.reset(handle)


__all__ = ["CancelToken", "ExecCancelled", "cancel_scope",
           "check_cancelled", "current_token"]
