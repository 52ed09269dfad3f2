"""Two lanes of work: the calling thread and one persistent pool thread.

The projector's row halves (:mod:`dualct.rowsplit`) and the conv layers'
site blocks (:mod:`dualct.regularizer`) each split one loop in two and
run the halves here. Each caller fixes its own split point, so the bytes
of a split loop never depend on whether the second lane exists: with one
usable CPU, or when the call comes from the pool thread itself, the
caller runs both parts in turn. The pool thread is started on first use,
and ``concurrent.futures`` is imported only then, so importing dualct
starts no thread and loads neither it nor scipy.
"""

from __future__ import annotations

import os
import threading

_pool = None  # a one-worker concurrent.futures.ThreadPoolExecutor, once made
_pool_lock = threading.Lock()
_lane = threading.local()  # .pool is True in the pool's own thread


def _forget_pool():
    # a forked child has no pool thread, but the pool would believe its
    # idle thread alive and never run a task
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one (Linux), else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity, as on macOS
        return os.cpu_count() or 1


def lane_count() -> int:
    """Lanes a split loop runs on: 2 when this process may use two CPUs or
    more, else 1."""
    return 2 if usable_cpus() >= 2 else 1


def _mark_pool_thread():
    _lane.pool = True


def both(first, second):
    """``(first(), second())``; ``second`` runs on the pool's thread while
    the caller runs ``first`` when there are two lanes. A call made from
    the pool's thread runs both itself, so lanes never wait on each other."""
    global _pool
    if lane_count() < 2 or getattr(_lane, "pool", False):
        return first(), second()
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="dualct-lane",
                                       initializer=_mark_pool_thread)
        later = _pool.submit(second)
    try:
        done = first()
    finally:
        other = later.result()
    return done, other
