"""Several emulated threads' compiled walks at once, on the machine's cores.

A force phase walks the tree once per emulated UPC thread.  The compiled
walks write only their own outputs: ``bh_slot_walk`` charges nothing,
and ``bh_frontier_walk`` charges only its own thread's clock and logs
its NIC adds (``docs/compiled-kernels.md``).  ctypes releases the GIL
for the call, so the walks of different threads can run side by side
on different cores.  The force phase then makes every other charge
afterwards, in thread order, with the same float operations as a serial
phase, so no simulated output depends on the worker count.

The workers are the CPUs this process may run on, capped at the number
of walks, and the calling thread is one of them.  Each worker claims the
heaviest walk left, by its bodies' interactions in the last step, until
none is left.  (Contiguous shares cut by the same weights left one of two
workers idle for about a fifth of the ``subspace-disk-16k`` benchmark's
frontier walks.)  The pool of the other workers starts on the first
phase that needs it, never at import.  Independent work runs
concurrently and only the dependent charges are ordered (Dekate et al.,
arXiv:1109.5190).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

J = TypeVar("J")
R = TypeVar("R")

#: worker count; ``None``: the CPUs this process may run on.  Tests set
#: it to force one or two workers.
_WORKERS: Optional[int] = None

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_SIZE = 0


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def _forget_pool() -> None:
    """In a forked child: the parent's worker threads do not exist
    there, so the next phase starts a pool of its own."""
    global _POOL, _POOL_SIZE
    _POOL = None
    _POOL_SIZE = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def worker_count(njobs: int) -> int:
    """Workers a phase of ``njobs`` walks runs on."""
    n = _WORKERS if _WORKERS is not None else _cpus()
    return max(1, min(n, njobs))


def _pool(size: int) -> ThreadPoolExecutor:
    global _POOL, _POOL_SIZE
    if _POOL is None or _POOL_SIZE < size:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        _POOL = ThreadPoolExecutor(max_workers=size,
                                   thread_name_prefix="repro-walk")
        _POOL_SIZE = size
    return _POOL


def run_jobs(fn: Callable[[J], R], jobs: Sequence[J],
             weights: Sequence[float]) -> List[R]:
    """``[fn(job) for job in jobs]``, on every worker; ``fn`` must be safe
    to run beside itself.

    Each worker claims the heaviest job left (by ``weights``) until none
    is: one future per worker, not per job, and the workers finish
    together.  A job's result does not depend on who ran it.  The first
    exception raised is re-raised once every worker has stopped.
    """
    nworkers = worker_count(len(jobs))
    if nworkers == 1:
        return [fn(job) for job in jobs]
    claims = iter(sorted(range(len(jobs)), key=lambda i: -weights[i]))
    lock = threading.Lock()
    results: List[Optional[R]] = [None] * len(jobs)

    def work() -> None:
        while True:
            with lock:
                i = next(claims, None)
            if i is None:
                return
            results[i] = fn(jobs[i])

    futures = [_pool(nworkers - 1).submit(work)
               for _ in range(nworkers - 1)]
    try:
        work()
    finally:
        for f in futures:
            f.result()
    return results  # type: ignore[return-value]
