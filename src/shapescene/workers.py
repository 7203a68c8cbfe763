"""Worker processes, in one place: `fork_map` runs independent tasks on one
forked worker per CPU of the process's affinity mask.

The parent is the only scheduler: it decides which item each task runs and
when it is submitted, so the workers share no state. Every task of the
package is deterministic, so the results, and every byte written from them,
do not depend on the number of workers. `taskset -c 0` gives one worker,
which is the calling process itself.
"""
from __future__ import annotations

import os

# Items admitted ahead of the one being consumed, per worker: enough that
# the workers on small tasks keep busy behind a large one, few enough that a
# huge sequence of items never becomes as many pending results.
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


def _run(index):
    fn, items = _task
    return fn(items[index])


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
    being consumed, and keeps one task per worker in flight plus one queued,
    so no worker waits for the parent between two tasks. Each time it sees a
    task finish, it submits the admitted item of greatest cost (`costs` holds
    one number per item) that it has not submitted, ties in item order. So
    the longest task in the window starts first (the
    longest-processing-time-first rule, Graham 1969): no large task starts
    last and leaves the other workers idle. On a call of at most one window
    of items, every item is admitted at once, and the tasks start in
    descending cost. On a longer call, the item a worker runs next is chosen
    when an earlier task finishes, one queued task ahead of that worker, so
    an item admitted in between waits for the next choice.

    Results are consumed lazily and in item order; an exception of fn is
    raised at its item, after every earlier result has been yielded, with
    the worker's traceback as its `__cause__`. The parent holds at most
    `_AHEAD` results per worker that it has not yet consumed, and the tasks
    in flight run on while the caller works on a result.

    fn and items reach the workers through fork, never through pickle, so fn
    may be a closure and `items` is never copied (a `range` stays a range).
    Only each task's index and its result are pickled. The package starts no
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
    import heapq
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    fork = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(workers, mp_context=fork, initializer=_start,
                               initargs=((fn, items), cpus, fork.Value("i", 0)))
    try:
        # (-cost, index) of each admitted item not yet submitted, the index of
        # each task in flight, the finished task of each index, and the
        # number of items admitted.
        waiting, running, finished, admitted = [], {}, {}, 0
        for index in range(len(items)):
            while admitted < min(len(items), index + _AHEAD * workers + 1):
                heapq.heappush(waiting, (-costs[admitted], admitted))
                admitted += 1
            while True:
                while waiting and len(running) <= workers:
                    item = heapq.heappop(waiting)[1]
                    running[pool.submit(_run, item)] = item
                if index in finished:
                    break
                for future in wait(running, return_when=FIRST_COMPLETED).done:
                    finished[running.pop(future)] = future
            yield finished.pop(index).result()
    finally:
        pool.shutdown(cancel_futures=True)
