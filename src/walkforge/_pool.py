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

`run_blocks(fn, n, work, align)` splits one large computation instead: it
calls `fn(lo, hi)` over contiguous blocks of `range(n)` whose inner bounds
are multiples of `align`, the first block in the calling thread and each
other block in a thread of its own, and joins them all before it returns.
numpy releases the interpreter lock inside BLAS calls and ufunc loops, so
the blocks run at once. The block count is measured too: the allowed CPUs
over the threads each BLAS call already uses (`OPENBLAS_NUM_THREADS`, else
`OMP_NUM_THREADS`). `run_lockstep(fn, n, work, align)` makes the same blocks for
a loop whose steps read what every block wrote the step before: it calls
`fn(lo, hi, wait)`, and `wait()` returns once every block has called it.
"""

from __future__ import annotations

import os
import sys
import threading
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
    workers = min(_cpu_count(), n_tasks)
    if workers <= 1 or _observed():
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


# The least work (multiply-adds, or element operations) a block is given.
# Starting and joining a thread costs 100-200 us, about the time of 2^21
# multiply-adds on one core. And OpenBLAS computes products of under about
# 10^6 multiply-adds with its small-matrix kernels, which round differently:
# a block of a larger product must not fall under that size.
_BLOCK_WORK = 1 << 23


def _blas_threads() -> int:
    """Threads one BLAS call uses, from the BLAS's own variables; 0 when
    neither is set (or readable): OpenBLAS then runs a thread per CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var)
        if value is not None:
            try:
                return max(int(value), 0)
            except ValueError:
                return 0
    return 0


def _block_count(n: int, work: int) -> int:
    most = work // _BLOCK_WORK
    if most < 2 or _task is not None:  # _task is set in pool workers only
        return 1
    per_call = _blas_threads()
    if per_call == 0:
        return 1
    # a one-row block would take numpy's matrix-vector path, whose sums
    # round differently from the matrix-matrix kernel's
    return max(1, min(_cpu_count() // per_call, n // 2, most))


def _bounds(n: int, work: int, align: int) -> list[int]:
    """The block bounds over range(n): the inner ones multiples of align,
    each block at least two groups of align long."""
    units = n // align
    count = _block_count(units, work)
    return [align * (units * i // count) for i in range(count)] + [n]


def _no_wait() -> None:
    pass


def run_blocks(fn: Callable[[int, int], None], n: int, work: int, align: int = 1) -> None:
    """fn(lo, hi) over contiguous blocks of range(n) that together cover it,
    at once when the CPUs allow; every bound but n is a multiple of align.
    `work` is the multiply-adds of the product whose rows or columns are
    split, or the element operations of elementwise work; each block gets
    at least 2^23 of it and at least two rows (or two groups of align). So
    a call under 2^24 runs as the single block fn(0, n), as does every call
    inside a run_tasks worker, which already holds one of the pool's CPUs.
    The first block to fail, in block order, raises its exception here once
    every block has finished."""
    run_lockstep(lambda lo, hi, wait: fn(lo, hi), n, work, align)


def run_lockstep(fn: Callable[[int, int, Callable[[], object]], None], n: int,
                 work: int, align: int) -> None:
    """fn(lo, hi, wait) over the blocks run_blocks(fn, n, work, align) would
    make, for a loop whose blocks advance together: wait() returns once
    every block has called it, so after it a block may read what the
    others wrote before it. Every block must call wait() equally often.
    A block that fails breaks the barrier, so none waits forever: the
    others' next waits raise threading.BrokenBarrierError, and the first
    failure in block order that is not one of those is raised here."""
    bounds = _bounds(n, work, align)
    count = len(bounds) - 1
    if count == 1:  # most calls: no thread and no barrier
        fn(0, n, _no_wait)
        return
    barrier = threading.Barrier(count)
    failures: list[BaseException | None] = [None] * count

    def block(i: int) -> None:
        try:
            fn(bounds[i], bounds[i + 1], barrier.wait)
        except BaseException as exc:  # re-raised below, after the joins
            failures[i] = exc
            barrier.abort()

    started = []
    try:
        for i in range(1, count):
            thread = threading.Thread(target=block, args=(i,))
            thread.start()
            started.append(thread)
        block(0)
    except BaseException:  # a thread failed to start: release the started
        barrier.abort()
        raise
    finally:  # none outlives the call
        for thread in started:
            thread.join()
    failed = [exc for exc in failures if exc is not None]
    if failed:
        raise next((exc for exc in failed if not isinstance(exc, threading.BrokenBarrierError)),
                   failed[0])
