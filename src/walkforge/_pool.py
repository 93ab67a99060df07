"""Independent tasks on every CPU this process may run on.

`run_tasks(fn, tasks)` returns `[fn(t) for t in tasks]`, in task order.
With more than one allowed CPU and more than one task, the calls run in
forked worker processes, at most one per CPU and never more than there are
tasks. Forked workers inherit `fn` and everything it closes over
copy-on-write, so only the task values and the results are pickled.

The worker count is measured, not configured: CPU affinity is the control,
and `taskset -c 0 walkforge ...` takes the serial path. Results do not
depend on it, provided each task is a deterministic function of its value.

The tasks also run serially while something in this process observes
walkforge's calls: a profile or trace hook (`sys.setprofile`,
`sys.settrace`: cProfile, debuggers, coverage) or a wrapper put over a
walkforge function, as span tracers do. Such an observer records into this
process's memory, and a forked worker's records die with the worker.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# The task function of a forked worker, set by the worker's initializer. It
# is inherited across the fork rather than pickled, so it may be a closure.
_task: Callable | None = None


def _set_task(fn: Callable) -> None:
    global _task
    _task = fn


def _call(arg):
    return _task(arg)


def _cpu_count() -> int:
    # CPU affinity is Linux-only; elsewhere run serially
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _observed() -> bool:
    """True when a profile or trace hook is set, or when a module-level
    walkforge function has been replaced by a wrapper (functools.wraps
    leaves `__wrapped__`; walkforge itself wraps none of its functions)."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("walkforge."):
            continue
        for value in list(vars(module).values()):
            if (callable(value) and hasattr(value, "__wrapped__")
                    and str(getattr(value, "__module__", "")).startswith("walkforge")):
                return True
    return False


def worker_count(n_tasks: int) -> int:
    """Worker processes run_tasks uses for n_tasks tasks; 1 is the serial
    path in the calling process."""
    # Before Python 3.11, ProcessPoolExecutor forks its workers on demand
    # from submit(), after its manager thread has started; forking while a
    # thread runs can deadlock the child (CPython gh-90622). From 3.11 the
    # fork context starts every worker up front, before that thread.
    workers = min(_cpu_count(), n_tasks)
    if workers <= 1 or sys.version_info < (3, 11) or _observed():
        return 1
    return workers


def run_tasks(fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
    """fn over tasks, results in task order. The first task to fail, in task
    order, raises its exception here, as the serial loop would."""
    workers = worker_count(len(tasks))
    if workers == 1:
        return [fn(task) for task in tasks]

    # imported here: the serial path should not pay for the import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # the fork context hands initializer arguments over without pickling
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_set_task, initargs=(fn,))
    try:
        return list(pool.map(_call, tasks))
    finally:
        pool.shutdown(cancel_futures=True)
