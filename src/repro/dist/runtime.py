"""Execution backends for worker phases.

The orchestrators express each phase as "run this thunk on every worker";
the runtime decides how.  In-process workers execute one by one in a
deterministic order (:class:`SequentialRuntime`).  Socket workers are
driven through a thread pool (:class:`ThreadedRuntime`): each thread
blocks on its worker's channel, so the worker processes compute
concurrently.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")


class Runtime:
    """Maps thunks over workers; subclasses choose the execution policy."""

    def map(self, thunks: Sequence[Callable[[], T]]) -> List[T]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SequentialRuntime(Runtime):
    """Deterministic in-order execution (the default)."""

    def map(self, thunks: Sequence[Callable[[], T]]) -> List[T]:
        return [thunk() for thunk in thunks]


class ThreadedRuntime(Runtime):
    """One thread per worker phase, joined at the phase barrier."""

    def __init__(self, max_threads: Optional[int] = None) -> None:
        self._pool = ThreadPoolExecutor(max_workers=max_threads or 16)

    def map(self, thunks: Sequence[Callable[[], T]]) -> List[T]:
        futures = [self._pool.submit(thunk) for thunk in thunks]
        # Wait for *every* future before surfacing a failure: recovery
        # (worker respawn, shard replay) must not start while sibling
        # phase thunks are still mutating worker state.
        results: List[T] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                if first_error is None:
                    first_error = exc
                results.append(None)  # type: ignore[arg-type]
        if first_error is not None:
            raise first_error
        return results

    def close(self) -> None:
        self._pool.shutdown(wait=True)
