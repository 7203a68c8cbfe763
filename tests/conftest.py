import os

import numpy as np
import pytest

from shapescene import build_database
from shapescene.geom import Rotation, project_to_so3
from shapescene.mesh import TriMesh
from shapescene.toys import make_box, make_cylinder, toy_shape_set


def random_rotation(rng: np.random.Generator) -> Rotation:
    """Uniform-ish random rotation from a projected Gaussian matrix: a test
    input, drawn as `rng.normal(size=(3, 3))`."""
    return project_to_so3(rng.normal(size=(3, 3)))


def _toy_shapes():
    return [(0 if cls == "box" else 1, mesh) for cls, mesh in toy_shape_set()]


@pytest.fixture(scope="session")
def toy_db():
    """2 classes x 5 exemplars from the bundled parametric toy set."""
    return build_database(_toy_shapes(), k_per_class=5, seed=42,
                          classes=["box", "cylinder"])


@pytest.fixture(scope="session")
def toy_db_dense():
    """Same database with a denser surface sampling for collision tests."""
    return build_database(_toy_shapes(), k_per_class=5, seed=42,
                          classes=["box", "cylinder"], points_per_entry=2048)


@pytest.fixture(scope="session")
def cube_db():
    """Single-class database whose only exemplar is an exact unit cube, so
    analytic containment tests can serve as independent occupancy oracles."""
    return build_database([(0, make_box())], k_per_class=1, seed=0,
                          classes=["box"])


@pytest.fixture
def open_box():
    """The unit box without its +z face (triangles 2 and 3): not watertight."""
    box = make_box()
    return TriMesh(box.vertices, np.delete(box.triangles, [2, 3], axis=0))


@pytest.fixture
def open_cylinder():
    """A 24-gon prism without its top cap: 72 triangles, not watertight."""
    cylinder = make_cylinder(0.5, 1.0, 24)
    top = 2 * 24 + 1  # the top cap's centre vertex
    return TriMesh(cylinder.vertices,
                   cylinder.triangles[~np.any(cylinder.triangles == top, axis=1)])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=["one CPU", "all CPUs"])
def affinity(request):
    """Runs the test with this process bound to its lowest CPU, where
    `workers.fork_map` runs in-process, then with every CPU of its mask, one
    forked worker per CPU. On a one-CPU machine both runs are in-process."""
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity on this platform")
    cpus = os.sched_getaffinity(0)
    if request.param == "one CPU":
        os.sched_setaffinity(0, {min(cpus)})
    try:
        yield request.param
    finally:
        os.sched_setaffinity(0, cpus)
