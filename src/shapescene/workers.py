"""Worker processes, in one place: `fork_map` runs independent tasks on one
forked worker per CPU of the process's affinity mask.

Every task of the package is deterministic, so the results, and every byte
written from them, do not depend on the number of workers. `taskset -c 0`
gives one worker, which is the calling process itself.
"""
from __future__ import annotations

import os

# Items admitted ahead of the one being consumed, per worker: enough that
# the workers on small tasks keep busy behind a large one, few enough that a
# huge sequence of items never becomes as many pending results.
_AHEAD = 16

_task = None  # (fn, items, costs, window) of the pool this process works for


class _Failed(Exception):
    """fn's exception, sent back with the index of its item."""


def _start(task, cpus, taken) -> None:
    """Worker initializer: keep the inherited task and bind this worker to
    the next CPU not yet taken, so no two workers share one."""
    global _task
    _task = task
    with taken.get_lock():
        cpu = cpus[taken.value]
        taken.value += 1
    os.sched_setaffinity(0, {cpu})


def _claim(costs, window) -> int:
    """Mark the costliest admitted item that no worker has started (ties to
    the lowest index) as started, and return its index.

    `window` is the shared array [lo, limit, flag...]: items below `limit`
    are admitted, every item below `lo` has started, and the flag at
    i % (number of flags) marks item i of [lo, limit) as started. The parent
    admits items only up to one ring's length from the first item it has not
    consumed, and every item before that one has started, so [lo, limit)
    fits the ring.
    """
    with window.get_lock():
        lo, limit, ring = window[0], window[1], len(window) - 2
        index = max((i for i in range(lo, limit) if not window[2 + i % ring]),
                    key=lambda i: (costs[i], -i))
        window[2 + index % ring] = 1
        while lo < limit and window[2 + lo % ring]:
            window[2 + lo % ring] = 0  # the flag now stands for item lo + ring
            lo += 1
        window[0] = lo
    return index


def _run(_):
    fn, items, costs, window = _task
    index = _claim(costs, window)
    try:
        return index, fn(items[index])
    except Exception as e:
        raise _Failed(index, e) from e


def _cpus() -> list[int]:
    """The CPUs a pool may use: none where the platform cannot bind a worker
    to a CPU or fork one (os.fork exists where the fork start method does)."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return []
    return sorted(os.sched_getaffinity(0))


def fork_map(fn, items, costs):
    """Yield fn(item) for each item of the sequence `items`, in item order.

    The calls run on one forked worker per CPU of `os.sched_getaffinity(0)`
    (at most one per item), each bound to its own CPU of that set. The parent
    admits items in item order, at most `_AHEAD` per worker past the one
    being consumed, and a free worker starts the admitted item of greatest
    cost (`costs` holds one comparable cost per item) that no worker has
    started, ties in item order. So the longest task in the window starts
    first (the longest-processing-time-first rule, Graham 1969), even when
    it is admitted after shorter ones: no large task starts last and leaves
    the other workers idle. Results are consumed lazily and in item order;
    an exception of fn is raised at its item, after every earlier result has
    been yielded. The parent holds at most `_AHEAD` results per worker that
    it has not yet consumed, and the workers go on with the admitted items
    while the caller works on a result.

    fn, items and costs reach the workers through fork, never through
    pickle, so fn may be a closure and `items` is never copied (a `range`
    stays a range). Only the results are pickled. The package starts no
    thread of its own, and the pool forks its workers before it starts its
    manager thread.

    The calls run in this process, one by one and in item order, when the
    mask holds one CPU, when there is at most one item, or when the platform
    has no `sched_getaffinity` or no fork. Every worker has exited when the
    generator is exhausted, raises or is closed.
    """
    cpus = _cpus()
    workers = min(len(cpus), len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    # Imported here, so a command that never forks does not load them.
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    fork = multiprocessing.get_context("fork")
    ahead = _AHEAD * workers
    window = fork.Array("q", 2 + ahead + 1)  # [lo, limit] and one flag per admitted item
    pool = ProcessPoolExecutor(workers, mp_context=fork, initializer=_start,
                               initargs=((fn, items, costs, window), cpus, fork.Value("i", 0)))
    try:
        admitted, running, arrived = 0, set(), {}
        for index in range(len(items)):
            # Admit before submitting, so the first task to start sees every
            # admitted item. Each task started claims one item.
            window[1] = min(len(items), index + ahead + 1)
            running.update(pool.submit(_run, None) for _ in range(admitted, window[1]))
            admitted = window[1]
            while index not in arrived:
                finished, running = wait(running, return_when=FIRST_COMPLETED)
                for future in finished:
                    try:
                        done, result = future.result()
                    except _Failed as failed:
                        done, result = failed.args[0], failed
                    arrived[done] = result
            result = arrived.pop(index)
            if isinstance(result, _Failed):
                raise result.args[1] from result.__cause__  # the worker's traceback
            yield result
    finally:
        pool.shutdown(cancel_futures=True)
