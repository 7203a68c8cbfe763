import multiprocessing
import os
import re
import time

import pytest

from shapescene.errors import NonWatertight
from shapescene.mesh import canonicalize_mesh
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

    assert list(fork_map(task, items)) == [i * i + offset for i in items]
    assert multiprocessing.active_children() == []


def test_fork_map_binds_each_worker_to_its_own_cpu(affinity):
    cpus = os.sched_getaffinity(0)
    runs = list(fork_map(lambda _: (os.getpid(), os.sched_getaffinity(0)),
                         range(4 * len(cpus))))
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
        for result in fork_map(task, range(6)):
            seen.append(result)
    assert seen == [0]
    assert multiprocessing.active_children() == []


def test_fork_map_runs_in_process_for_one_item():
    assert list(fork_map(lambda _: os.getpid(), [None])) == [os.getpid()]
    assert list(fork_map(lambda _: os.getpid(), [])) == []


def test_no_worker_outlives_a_call(affinity, open_cylinder):
    results = fork_map(lambda i: i, range(1000))
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
