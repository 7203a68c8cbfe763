"""Worker processes, in one place: `fork_map` runs independent tasks on one
forked worker per CPU of the process's affinity mask.

Every task of the package is deterministic, so the results, and every byte
written from them, do not depend on the number of workers. `taskset -c 0`
gives one worker, which is the calling process itself.
"""
from __future__ import annotations

import os
from collections import deque

# Tasks submitted ahead of the one being consumed, per worker: enough that
# the workers on small tasks keep busy behind a large one, few enough that a
# huge sequence of items never becomes as many pending futures.
_AHEAD = 16

_task = None  # (fn, items) of the pool this process works for


def _start(task, cpus, taken) -> None:
    """Worker initializer: keep the inherited task and bind this worker to
    the next CPU not yet taken, so no two workers share one."""
    global _task
    _task = task
    with taken.get_lock():
        cpu = cpus[taken.value]
        taken.value += 1
    os.sched_setaffinity(0, {cpu})


def _run(index: int):
    fn, items = _task
    return fn(items[index])


def _cpus() -> list[int]:
    """The CPUs a pool may use: none where the platform cannot bind a worker
    to a CPU or fork one (os.fork exists where the fork start method does)."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return []
    return sorted(os.sched_getaffinity(0))


def fork_map(fn, items):
    """Yield fn(item) for each item of the sequence `items`, in item order.

    The calls run on one forked worker per CPU of `os.sched_getaffinity(0)`
    (at most one per item), each bound to its own CPU of that set. Tasks
    start in item order, so a caller that lists its largest tasks first gets
    the longest-processing-time-first schedule (Graham 1969): no large task
    starts last and leaves the other workers idle. Results are consumed
    lazily and in order; an exception of fn is raised at its item, after
    every earlier result has been yielded. The parent holds at most
    `_AHEAD` results per worker that it has not yet consumed.

    fn and items reach the workers through fork, never through pickle, so fn
    may be a closure and `items` is never copied (a `range` stays a range).
    Only the indices and the results are pickled. The package starts no
    thread of its own, and the pool forks its workers before it starts its
    manager thread.

    The calls run in this process, one by one, when the mask holds one CPU,
    when there is at most one item, or when the platform has no
    `sched_getaffinity` or no fork. Every worker has exited when the
    generator is exhausted, raises or is closed.
    """
    cpus = _cpus()
    workers = min(len(cpus), len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    # Imported here, so a command that never forks does not load them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(workers, mp_context=fork, initializer=_start,
                               initargs=((fn, items), cpus, fork.Value("i", 0)))
    try:
        pending = deque()
        for index in range(len(items)):
            pending.append(pool.submit(_run, index))
            if len(pending) > _AHEAD * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
