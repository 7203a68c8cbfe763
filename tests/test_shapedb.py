import numpy as np
import pytest

from shapescene.errors import DataError, InsufficientShapes, UnknownClass, UnknownExemplar
from shapescene.sdf import SdfGrid
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


def _entry_flat(e):
    return e.sdf.values.reshape(-1)


def test_kmeans_two_separated_clusters():
    # Exhaustive nearest-of-two-means oracle on a tiny constructed instance.
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 4)) * 0.1
    b = rng.normal(size=(6, 4)) * 0.1 + 10.0
    data = np.vstack([a, b])
    _, assign = kmeans_pp(data, 2, np.random.default_rng(7))
    mean_a = data[assign == assign[0]].mean(axis=0)
    mean_b = data[assign != assign[0]].mean(axis=0)
    oracle = (np.linalg.norm(data - mean_b, axis=1)
              < np.linalg.norm(data - mean_a, axis=1))
    assert np.array_equal(assign != assign[0], oracle)
    assert set(assign[:6]) != set(assign[6:])  # clusters split as constructed


def test_kmeans_k_equals_n():
    data = np.arange(10.0).reshape(5, 2) ** 2
    centroids, assign = kmeans_pp(data, 5, np.random.default_rng(3))
    assert sorted(assign) == list(range(5))
    distortion = sum(np.sum((data[i] - centroids[assign[i]]) ** 2)
                     for i in range(5))
    assert distortion == 0.0


def test_kmeans_k1_fixpoint_is_mean():
    data = np.random.default_rng(5).normal(size=(9, 3))
    centroids, assign = kmeans_pp(data, 1, np.random.default_rng(1))
    assert np.all(assign == 0)
    assert np.allclose(centroids[0], data.mean(axis=0))


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


def test_soft_label_within_class_maximal(toy_db):
    for e in toy_db.entries:
        label = soft_label(toy_db, e.sdf)
        lo = e.class_id * toy_db.k_per_class
        within = label[lo:lo + toy_db.k_per_class]
        assert int(np.argmax(within)) == e.exemplar_index


def test_save_load_round_trip(tmp_path, toy_db):
    save_database(toy_db, tmp_path / "db")
    back = load_database(tmp_path / "db")
    assert back.classes == toy_db.classes
    assert back.k_per_class == toy_db.k_per_class
    assert back.normalization == toy_db.normalization
    for a, b in zip(toy_db.entries, back.entries):
        assert np.array_equal(b.sdf.values,
                              a.sdf.values.astype(np.float32).astype(np.float64))
        assert np.array_equal(b.points,
                              a.points.astype(np.float32).astype(np.float64))
        assert np.array_equal(b.mesh.triangles, a.mesh.triangles)


def test_save_deterministic(tmp_path, toy_db):
    save_database(toy_db, tmp_path / "a")
    save_database(toy_db, tmp_path / "b")
    for p in sorted((tmp_path / "a").iterdir()):
        assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()
