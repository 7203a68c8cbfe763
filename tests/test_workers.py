import multiprocessing
import os
import re
import time

import pytest

from shapescene.errors import DegenerateMesh, InsufficientShapes, NonWatertight
from shapescene.mesh import TriMesh, canonicalize_mesh
from shapescene.sdf import mesh_to_sdf
from shapescene.shapedb import build_database
from shapescene.toys import make_box, make_cylinder
from shapescene.workers import _AHEAD, fork_map


def test_fork_map_yields_in_item_order(affinity):
    # A closure cannot be pickled; the workers inherit it. Every eighth item
    # is slow, so the items after it finish first, both while the window of
    # pending tasks moves and after the last submission.
    offset = 7
    items = range(2 * _AHEAD * len(os.sched_getaffinity(0)) + 5)

    def task(i):
        time.sleep(0.005 * (i % 8 == 0))
        return i * i + offset

    assert list(fork_map(task, items, [0] * len(items))) == [i * i + offset for i in items]
    assert multiprocessing.active_children() == []


def test_fork_map_starts_the_costliest_admitted_task_first(affinity):
    # Every item is admitted at once (fewer items than the window), so item 5,
    # the costliest, is submitted before any other. Each task counts
    # its start in a shared counter and sleeps, so no worker starts a second
    # task before the others have counted their first.
    started = multiprocessing.get_context("fork").Value("i", 0)
    costs = [1, 2, 1, 3, 1, 9, 2, 1]

    def task(i):
        with started.get_lock():
            started.value += 1
            rank = started.value
        time.sleep(0.02)
        return i, rank

    runs = list(fork_map(task, range(len(costs)), costs))
    assert [i for i, _ in runs] == list(range(len(costs)))  # item order
    ranks = [rank for _, rank in runs]
    workers = min(len(os.sched_getaffinity(0)), len(costs))
    if workers == 1:  # in-process, one call per item as it is consumed
        assert ranks == list(range(1, len(costs) + 1))
    else:
        assert ranks[5] <= workers
        assert sorted(ranks) == list(range(1, len(costs) + 1))
    assert multiprocessing.active_children() == []


def test_fork_map_starts_at_most_one_window_ahead_of_the_consumer(affinity):
    # Item 0 is slow, and every task counts its start. While item 0 runs, the
    # others finish, but only the items admitted ahead of it may start: item
    # 0 and `_AHEAD` per worker past it.
    started = multiprocessing.get_context("fork").Value("i", 0)
    workers = len(os.sched_getaffinity(0))

    def task(i):
        with started.get_lock():
            started.value += 1
        time.sleep(0.5 * (i == 0))
        return i

    n = 3 * _AHEAD * workers
    results = fork_map(task, range(n), [0] * n)
    assert next(results) == 0
    assert started.value <= _AHEAD * workers + 1
    results.close()
    assert multiprocessing.active_children() == []


def test_fork_map_raises_with_the_tasks_traceback(affinity):
    def failing_task(i):
        if i == 2:
            raise ValueError("item 2")
        return i

    with pytest.raises(ValueError, match="item 2") as raised:
        list(fork_map(failing_task, range(4), [0] * 4))
    if len(os.sched_getaffinity(0)) == 1:  # in-process: the traceback is the call's own
        assert raised.traceback[-1].name == "failing_task"
    else:  # the worker's traceback, as text
        assert "in failing_task" in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []


def test_fork_map_binds_each_worker_to_its_own_cpu(affinity):
    cpus = os.sched_getaffinity(0)
    runs = list(fork_map(lambda _: (os.getpid(), os.sched_getaffinity(0)),
                         range(4 * len(cpus)), [0] * 4 * len(cpus)))
    if len(cpus) == 1:  # in-process, unbound
        assert runs == [(os.getpid(), cpus)] * len(runs)
        return
    bound = dict(runs)
    assert os.getpid() not in bound
    assert all(len(cpu) == 1 and cpu <= cpus for cpu in bound.values())
    assert len({min(cpu) for cpu in bound.values()}) == len(bound)  # one CPU each
    assert os.sched_getaffinity(0) == cpus  # the caller stays unbound


def test_fork_map_raises_at_its_item(affinity):
    # Item 3 fails first; item 1's error is raised, after item 0's result.
    def task(i):
        if i == 1:
            time.sleep(0.05)
            raise ValueError("item 1")
        if i == 3:
            raise KeyError("item 3")
        return i

    seen = []
    with pytest.raises(ValueError, match="item 1"):
        for result in fork_map(task, range(6), [0] * 6):
            seen.append(result)
    assert seen == [0]
    assert multiprocessing.active_children() == []


def test_fork_map_runs_in_process_for_one_item():
    assert list(fork_map(lambda _: os.getpid(), [None], [0])) == [os.getpid()]
    assert list(fork_map(lambda _: os.getpid(), [], [])) == []


def test_no_worker_outlives_a_call(affinity, open_cylinder):
    results = fork_map(lambda i: i, range(1000), range(1000))
    assert next(results) == 0
    results.close()
    assert multiprocessing.active_children() == []

    shapes = [(0, make_box(1.0, 1.0, 1.0, taper=0.3 + 0.1 * i)) for i in range(3)]
    db = build_database(shapes, k_per_class=2, seed=0, resolution=12, points_per_entry=16)
    assert db.total == 2
    assert multiprocessing.active_children() == []

    with pytest.raises(NonWatertight, match="in shape 3$"):
        build_database(shapes + [(0, open_cylinder)] + shapes, k_per_class=2, seed=0,
                       resolution=12, points_per_entry=16)
    assert multiprocessing.active_children() == []


def test_first_open_shape_in_input_order_is_named(affinity, open_box, open_cylinder):
    # Shapes run largest first, so the later, larger open shape (72
    # triangles against 10) starts first and is read first.
    closed = [make_box(1.0, 1.0, 1.0, taper=0.5), make_cylinder(0.5, 1.0, 40)]
    shapes = [(0, m) for m in [closed[0], open_box, open_cylinder, closed[1]]]
    with pytest.raises(NonWatertight) as alone:
        mesh_to_sdf(canonicalize_mesh(open_box), 12)
    with pytest.raises(NonWatertight, match=re.escape(f"{alone.value} in shape 1") + "$"):
        build_database(shapes, k_per_class=1, seed=0, resolution=12, points_per_entry=16)


def _flat(mesh):
    """The mesh pressed flat along z: no z extent, so canonicalizing it fails."""
    return TriMesh(mesh.vertices * [1.0, 1.0, 0.0], mesh.triangles)


@pytest.mark.parametrize("second", ["degenerate", "too few"])
def test_an_open_shape_is_raised_before_a_later_class_error(affinity, open_cylinder, second):
    # Class 1's error is found while canonicalizing, before any SDF, but it is
    # raised only when class 1 comes up; class 0's open shape comes first.
    boxes = [make_box(1.0, 1.0, 1.0, taper=0.3 + 0.1 * i) for i in range(3)]
    later = {"degenerate": [boxes[0], _flat(boxes[1])], "too few": [boxes[0]]}[second]
    shapes = [(0, m) for m in boxes[:2] + [open_cylinder]] + [(1, m) for m in later]
    with pytest.raises(NonWatertight, match="in shape 2$"):
        build_database(shapes, k_per_class=2, seed=0, resolution=12, points_per_entry=16)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("second", ["degenerate", "too few"])
def test_a_later_class_error_is_raised_after_the_earlier_classes(affinity, second):
    boxes = [make_box(1.0, 1.0, 1.0, taper=0.3 + 0.1 * i) for i in range(3)]
    later = {"degenerate": [boxes[0], _flat(boxes[1])], "too few": [boxes[0]]}[second]
    shapes = [(0, m) for m in boxes] + [(1, m) for m in later]
    error = {"degenerate": DegenerateMesh, "too few": InsufficientShapes}[second]
    with pytest.raises(error):
        build_database(shapes, k_per_class=2, seed=0, resolution=12, points_per_entry=16)
    assert multiprocessing.active_children() == []
