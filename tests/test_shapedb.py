import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from shapescene.errors import (
    DataError,
    InsufficientShapes,
    NonWatertight,
    UnknownClass,
    UnknownExemplar,
)
from shapescene.mesh import canonicalize_mesh
from shapescene.sdf import SdfGrid, mesh_to_sdf
from shapescene import shapedb
from shapescene.shapedb import (
    assign_exemplar,
    build_database,
    hard_label,
    kmeans_pp,
    load_database,
    save_database,
    soft_label,
)
from shapescene.toys import make_box
from shapescene.workers import _AHEAD


def _entry_flat(e):
    return e.sdf.values.reshape(-1)


def test_kmeans_two_separated_clusters():
    # Exhaustive nearest-of-two-means oracle on a tiny constructed instance.
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 4)) * 0.1
    b = rng.normal(size=(6, 4)) * 0.1 + 10.0
    data = np.vstack([a, b])
    _, assign, _ = kmeans_pp(data, 2, np.random.default_rng(7))
    mean_a = data[assign == assign[0]].mean(axis=0)
    mean_b = data[assign != assign[0]].mean(axis=0)
    oracle = (np.linalg.norm(data - mean_b, axis=1)
              < np.linalg.norm(data - mean_a, axis=1))
    assert np.array_equal(assign != assign[0], oracle)
    assert set(assign[:6]) != set(assign[6:])  # clusters split as constructed


def _kmeans_broadcast(data, k, rng, max_iter=100):
    """kmeans_pp with its Lloyd distances taken over one (n, k, d) broadcast:
    the reference the per-centroid loop must match exactly."""
    n = len(data)
    centers = [data[rng.integers(n)]]
    d2 = np.sum((data - centers[0]) ** 2, axis=1)
    for _ in range(k - 1):
        total = d2.sum()
        if total <= 0:
            idx = rng.integers(n)
        else:
            idx = min(int(np.searchsorted(np.cumsum(d2 / total), rng.random())), n - 1)
        centers.append(data[idx])
        d2 = np.minimum(d2, np.sum((data - centers[-1]) ** 2, axis=1))
    centroids = np.array(centers)
    assign = np.full(n, -1)
    for _ in range(max_iter):
        dists = np.sum((data[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(dists, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = data[assign == c]
            if len(members) == 0:
                far = int(np.argmax(dists[np.arange(n), assign]))
                centroids[c] = data[far]
                assign[far] = c
            else:
                centroids[c] = members.mean(axis=0)
    return centroids, assign


@pytest.mark.parametrize("n, k, d", [(8, 4, 32768), (50, 7, 1000), (200, 13, 513),
                                     (1000, 50, 64)])
def test_kmeans_matches_broadcast_form(n, k, d):
    rng = np.random.default_rng(n + k)
    data = rng.normal(size=(n, d))
    data[n // 2:n // 2 + 3] = data[0]  # duplicate rows tie in every distance
    centroids, assign, _ = kmeans_pp(data, k, np.random.default_rng(11))
    ref_centroids, ref_assign = _kmeans_broadcast(data, k, np.random.default_rng(11))
    assert np.array_equal(assign, ref_assign)
    assert np.array_equal(centroids, ref_centroids)


@pytest.mark.parametrize("n, k, d", [(9, 3, 32768), (50, 7, 1000), (40, 5, 70000)])
@pytest.mark.parametrize("block", [1, 1 << 16, 1 << 40])
def test_kmeans_float32_rows_in_blocks_keep_the_bits(n, k, d, block, monkeypatch):
    # float32 rows widen exactly, and a row's sum does not depend on the rows
    # summed beside it: float32 rows in blocks of any size give the bits of
    # float64 rows in one block.
    rng = np.random.default_rng(n + k)
    data = rng.normal(size=(n, d)).astype(np.float32)
    data[n // 2:n // 2 + 3] = data[0]  # duplicate rows tie in every distance
    monkeypatch.setattr(shapedb, "_BLOCK_ELEMENTS", 1 << 40)
    want = kmeans_pp(data.astype(np.float64), k, np.random.default_rng(11))
    monkeypatch.setattr(shapedb, "_BLOCK_ELEMENTS", block)
    got = kmeans_pp(data, k, np.random.default_rng(11))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_kmeans_k_equals_n():
    data = np.arange(10.0).reshape(5, 2) ** 2
    centroids, assign, _ = kmeans_pp(data, 5, np.random.default_rng(3))
    assert sorted(assign) == list(range(5))
    distortion = sum(np.sum((data[i] - centroids[assign[i]]) ** 2)
                     for i in range(5))
    assert distortion == 0.0


def test_kmeans_k1_fixpoint_is_mean():
    data = np.random.default_rng(5).normal(size=(9, 3))
    centroids, assign, _ = kmeans_pp(data, 1, np.random.default_rng(1))
    assert np.all(assign == 0)
    assert np.allclose(centroids[0], data.mean(axis=0))


def test_kmeans_integer_rows_get_float_means():
    # Centroids of integer rows are their float64 means, not truncated to ints.
    data = np.array([[0], [1], [10], [11]])
    centroids, assign, _ = kmeans_pp(data, 2, np.random.default_rng(0))
    assert centroids.dtype == np.float64
    assert np.array_equal(centroids[assign], [[0.5], [0.5], [10.5], [10.5]])


@pytest.mark.parametrize("case", ["converged", "equal rows", "capped"])
def test_kmeans_table_holds_the_returned_centroids(case, monkeypatch):
    if case == "equal rows":
        # k = 3: each step moves a row into the clusters left empty, so the
        # assignment cycles until KMEANS_MAX_ITER.
        data, k = np.ones((3, 4)), 3
    else:
        data, k = np.random.default_rng(2).normal(size=(40, 6)), 5
        data[20:23] = data[0]
    if case == "capped":  # the last step moves the centroids
        monkeypatch.setattr(shapedb, "KMEANS_MAX_ITER", 1)
    centroids, assign, sq_dists = kmeans_pp(data, k, np.random.default_rng(4))
    assert sq_dists.shape == (len(data), k)
    for c in range(k):
        assert (np.sqrt(sq_dists[:, c]).tobytes()
                == np.linalg.norm(data - centroids[c], axis=1).tobytes())
    # A fixpoint's table reproduces its assignment; a capped run's need not.
    assert np.array_equal(np.argmin(sq_dists, axis=1), assign) == (case == "converged")


def test_identical_shapes_fill_every_exemplar():
    # Three equal rows and k = 3: the D^2 seeding finds no spread, Lloyd
    # re-seeds the clusters left empty, and an exemplar whose cluster ends
    # empty is picked from the whole class.
    data = np.ones((3, 4))
    centroids, assign, _ = kmeans_pp(data, 3, np.random.default_rng(0))
    assert np.array_equal(centroids, data) and set(assign) <= {0, 1, 2}
    db = build_database([(0, make_box())] * 3, k_per_class=3, seed=0, resolution=8,
                        points_per_entry=16)
    box = canonicalize_mesh(make_box())
    for e in db.entries:
        assert np.array_equal(e.sdf.values, mesh_to_sdf(box, 8).values.astype(np.float32))
        assert np.array_equal(e.mesh.vertices, box.vertices)


def test_build_database_layout(toy_db):
    assert toy_db.classes == ["box", "cylinder"]
    assert toy_db.total == 10
    for cid in range(2):
        for k in range(5):
            e = toy_db.entry(cid, k)
            assert e.class_id == cid and e.exemplar_index == k
            assert toy_db.global_index(cid, k) == cid * 5 + k
            assert e.sdf.resolution == (32, 32, 32)
            assert e.points.shape == (512, 3)


def test_build_database_exemplars_are_members(toy_db):
    # Every stored SDF must be one of the class's input shapes, so all
    # exemplar meshes span exactly the unit cube.
    for e in toy_db.entries:
        lo, hi = e.mesh.bounds()
        assert np.allclose(lo, -0.5, atol=1e-9)
        assert np.allclose(hi, 0.5, atol=1e-9)


def test_build_database_insufficient_raises():
    with pytest.raises(InsufficientShapes):
        build_database([(0, make_box())], k_per_class=3, seed=0, classes=["box"])


def test_build_database_names_the_open_mesh(open_box):
    # Shape 2 is the open one; the first class holds shape 0 only.
    shapes = [(0, make_box()), (1, make_box()), (1, open_box)]
    with pytest.raises(NonWatertight, match=r"% of samples in shape 2$"):
        build_database(shapes, k_per_class=1, seed=0, resolution=12)
    with pytest.raises(NonWatertight, match=r"% of samples in c\.obj$"):
        build_database(shapes, k_per_class=1, seed=0, resolution=12,
                       sources=["a.obj", "b.obj", "c.obj"])


def test_assign_exemplar_self(toy_db):
    for e in toy_db.entries:
        assert assign_exemplar(toy_db, e.sdf, e.class_id) == e.exemplar_index


def test_assign_exemplar_linear_scan_oracle(toy_db, rng):
    base = toy_db.entry(0, 0).sdf
    phi = SdfGrid(base.values + rng.normal(size=base.values.shape) * 0.05,
                  base.origin, base.spacing)
    got = assign_exemplar(toy_db, phi, 0)
    dists = [np.linalg.norm(phi.values.reshape(-1) - _entry_flat(e))
             for e in toy_db.class_entries(0)]
    assert got == int(np.argmin(dists))


def test_assign_exemplar_tie_lowest_index(toy_db):
    # A field equidistant from everything by construction: huge constant.
    base = toy_db.entry(0, 0).sdf
    far = SdfGrid(np.full(base.values.shape, 1e6), base.origin, base.spacing)
    dists = [np.linalg.norm(far.values.reshape(-1) - _entry_flat(e))
             for e in toy_db.class_entries(0)]
    assert assign_exemplar(toy_db, far, 0) == int(np.argmin(dists))


def test_assign_exemplar_unknown_class(toy_db):
    with pytest.raises(UnknownClass):
        assign_exemplar(toy_db, toy_db.entry(0, 0).sdf, 5)


def test_exemplar_index_range_checked(toy_db):
    # A negative index must not wrap to the previous class's last exemplar.
    for cid, k in ((1, -1), (0, 5), (1, 5)):
        with pytest.raises(UnknownExemplar):
            toy_db.entry(cid, k)
        with pytest.raises(UnknownExemplar):
            toy_db.global_index(cid, k)
    assert issubclass(UnknownExemplar, DataError)
    with pytest.raises(UnknownClass):
        toy_db.global_index(2, 0)


def test_hard_label_one_hot(toy_db):
    e = toy_db.entry(1, 2)
    label = hard_label(toy_db, e.sdf, 1)
    assert label.sum() == 1.0
    assert label[toy_db.global_index(1, 2)] == 1.0


def test_soft_label_formula_oracle(toy_db):
    e = toy_db.entry(0, 1)
    label = soft_label(toy_db, e.sdf)
    for idx, other in enumerate(toy_db.entries):
        d = np.linalg.norm((_entry_flat(e) - _entry_flat(other))
                           / toy_db.normalization)
        assert abs(label[idx] - max(1.0 - d, 0.0)) < 1e-12
    assert np.all((label >= 0.0) & (label <= 1.0))
    assert label[toy_db.global_index(0, 1)] == 1.0  # self-similarity


def test_labels_use_the_row_sum_distance(toy_db):
    # Every exemplar decision takes the root of k-means' row sum, bit for bit:
    # the sums of one (entries, voxels) matrix, with no BLAS dot product.
    flats = np.stack([_entry_flat(e) for e in toy_db.entries])
    for e in toy_db.entries:
        dists = np.sqrt(np.sum((flats - _entry_flat(e)) ** 2, axis=-1))
        expected = np.maximum(1.0 - dists / toy_db.normalization, 0.0)
        assert soft_label(toy_db, e.sdf).tobytes() == expected.tobytes()
    base = toy_db.entry(1, 0).sdf
    noise = np.random.default_rng(3).normal(size=base.values.shape) * 0.05
    for phi in (toy_db.entry(0, 2).sdf, SdfGrid(base.values + noise, base.origin, base.spacing)):
        for cid in range(toy_db.class_count):
            lo = cid * toy_db.k_per_class
            rows = flats[lo:lo + toy_db.k_per_class]
            dists = np.sqrt(np.sum((rows - phi.values.reshape(-1)) ** 2, axis=-1))
            assert assign_exemplar(toy_db, phi, cid) == int(np.argmin(dists))


def test_soft_label_within_class_maximal(toy_db):
    for e in toy_db.entries:
        label = soft_label(toy_db, e.sdf)
        lo = e.class_id * toy_db.k_per_class
        within = label[lo:lo + toy_db.k_per_class]
        assert int(np.argmax(within)) == e.exemplar_index



@pytest.mark.parametrize("normalization", [5e-324, 1e-300, 1e-160])
def test_soft_label_tiny_normalization(toy_db, normalization):
    """Under a normalization whose scaled SDF vectors would overflow, the
    scaled distance is finite or +inf: label 1 for the entry itself and 0 for
    every other, with no NaN and no overflow warning."""
    db = dataclasses.replace(toy_db, normalization=normalization)
    e = db.entry(0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        label = soft_label(db, e.sdf)
    expected = np.zeros(len(db.entries))
    expected[db.global_index(0, 1)] = 1.0
    assert np.array_equal(label, expected)


def test_save_load_round_trip(tmp_path, toy_db):
    # build_database holds the float32 values the files store, so the
    # database read back equals the built one exactly.
    save_database(toy_db, tmp_path / "db")
    back = load_database(tmp_path / "db")
    assert back.classes == toy_db.classes
    assert back.k_per_class == toy_db.k_per_class
    assert back.normalization == toy_db.normalization
    assert back.total == toy_db.total
    for a, b in zip(toy_db.entries, back.entries):
        assert (b.class_id, b.exemplar_index) == (a.class_id, a.exemplar_index)
        assert np.array_equal(b.sdf.values, a.sdf.values)
        assert np.array_equal(b.sdf.origin, a.sdf.origin)
        assert b.sdf.spacing == a.sdf.spacing
        assert np.array_equal(b.points, a.points)
        assert np.array_equal(b.mesh.vertices, a.mesh.vertices)
        assert np.array_equal(b.mesh.triangles, a.mesh.triangles)


def _traced_peak(fn):
    """fn()'s result and the peak of the memory it traced above the start."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_build_database_memory_holds_one_sdf_matrix():
    # One class of 24 boxes at 32^3, k = 4; a matrix here is one (n, d)
    # float64 matrix. The class's SDFs are one float32 (n, d) matrix, and
    # k-means fills its table in row blocks. Traced peak: 1.10-1.39
    # matrices, 2.36-2.77 with float64 rows and whole-matrix differences, and
    # 3.34 with a list of grids beside the stacked matrix.
    shapes = [(0, make_box(1.0, 1.0, 1.0, taper=0.3 + 0.025 * i)) for i in range(24)]
    matrix_bytes = 24 * 32**3 * 8
    db, peak = _traced_peak(lambda: build_database(shapes, k_per_class=4, seed=0,
                                                   resolution=32, points_per_entry=64))
    assert db.total == 4
    assert peak < 3.0 * matrix_bytes


def test_build_database_memory_holds_one_class_and_the_window():
    # Two classes of 24 boxes at 32^3, k = 4, from one fork_map call. While
    # the parent clusters class 0, the workers go on with class 1, and the
    # parent receives their rows. Class 0's matrix is dropped before class
    # 1's is allocated, so the bound is the one-class bound (3.0 matrices)
    # plus the results fork_map may hold unconsumed: _AHEAD per worker, each
    # one float32 row of 32^3 values. In process (one CPU) there is no window.
    boxes = [make_box(1.0, 1.0, 1.0, taper=0.3 + 0.025 * i) for i in range(24)]
    shapes = [(cid, box) for cid in (0, 1) for box in boxes]
    matrix_bytes = 24 * 32**3 * 8
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    window_bytes = _AHEAD * cpus * 32**3 * 4 if cpus > 1 else 0
    db, peak = _traced_peak(lambda: build_database(shapes, k_per_class=4, seed=0,
                                                   resolution=32, points_per_entry=64))
    assert db.total == 8
    assert peak < 3.0 * matrix_bytes + window_bytes


def test_build_database_memory_holds_float32_rows(affinity):
    # The two classes above, with the lattice's bricks built beforehand, as
    # any later SDF at 32^3 finds them. Each class holds its SDFs as float32
    # rows, k-means holds row blocks of `_BLOCK_ELEMENTS`, and a class's
    # centroids are dropped before the next class is read. Traced peak:
    # 1.14 matrices on one CPU and on two; 2.78 with float64 rows and kept
    # centroids.
    boxes = [make_box(1.0, 1.0, 1.0, taper=0.3 + 0.025 * i) for i in range(24)]
    shapes = [(cid, box) for cid in (0, 1) for box in boxes]
    matrix_bytes = 24 * 32**3 * 8
    cpus = len(os.sched_getaffinity(0))
    window_bytes = _AHEAD * cpus * 32**3 * 4 if cpus > 1 else 0
    mesh_to_sdf(canonicalize_mesh(boxes[0]), 32)
    db, peak = _traced_peak(lambda: build_database(shapes, k_per_class=4, seed=0,
                                                   resolution=32, points_per_entry=64))
    assert db.total == 8
    assert peak < 1.5 * matrix_bytes + window_bytes


def test_save_deterministic(tmp_path, toy_db):
    save_database(toy_db, tmp_path / "a")
    save_database(toy_db, tmp_path / "b")
    for p in sorted((tmp_path / "a").iterdir()):
        assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()
