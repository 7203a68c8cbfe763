import struct

import numpy as np
import pytest

from shapescene.errors import MalformedFile, NonWatertight
from shapescene.sdf import (
    SdfGrid,
    clamp_interior,
    mesh_to_sdf,
    read_heatmap,
    read_sdfg,
    sample_grids,
    sample_zero_outside,
    write_heatmap,
    write_sdfg,
)
from shapescene.toys import make_box


def _cube_sdf_oracle(points):
    """Analytic signed distance of the unit cube."""
    q = np.abs(np.asarray(points, dtype=np.float64)) - 0.5
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(np.max(q, axis=1), 0.0)
    return outside + inside


def _trilinear_oracle(g, x):
    """Independent 8-corner weighted sum."""
    u = (np.asarray(x) - g.origin) / g.spacing
    i = np.floor(u).astype(int)
    f = u - i
    total = 0.0
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                w = ((f[0] if dx else 1 - f[0])
                     * (f[1] if dy else 1 - f[1])
                     * (f[2] if dz else 1 - f[2]))
                total += w * g.values[i[0] + dx, i[1] + dy, i[2] + dz]
    return total


def _eight_gather_reference(values, origin, spacing, pts):
    """The sampler as first written: eight fancy-index gathers over every
    point, then zero value and gradient where the stencil is incomplete."""
    n = np.array(values.shape)
    u = (pts - origin) / spacing
    i = np.floor(u).astype(np.int64)
    oob = np.any((i < 0) | (i + 1 > n - 1), axis=1)
    i = np.clip(i, 0, n - 2)
    f = u - i

    c = values
    ix, iy, iz = i[:, 0], i[:, 1], i[:, 2]
    v000 = c[ix, iy, iz]
    v100 = c[ix + 1, iy, iz]
    v010 = c[ix, iy + 1, iz]
    v110 = c[ix + 1, iy + 1, iz]
    v001 = c[ix, iy, iz + 1]
    v101 = c[ix + 1, iy, iz + 1]
    v011 = c[ix, iy + 1, iz + 1]
    v111 = c[ix + 1, iy + 1, iz + 1]

    fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]
    v00 = v000 + fx * (v100 - v000)
    v10 = v010 + fx * (v110 - v010)
    v01 = v001 + fx * (v101 - v001)
    v11 = v011 + fx * (v111 - v011)
    v0 = v00 + fy * (v10 - v00)
    v1 = v01 + fy * (v11 - v01)
    vals = v0 + fz * (v1 - v0)

    dx00 = v100 - v000
    dx10 = v110 - v010
    dx01 = v101 - v001
    dx11 = v111 - v011
    dx0 = dx00 + fy * (dx10 - dx00)
    dx1 = dx01 + fy * (dx11 - dx01)
    gx = dx0 + fz * (dx1 - dx0)
    gy = (v10 - v00) + fz * ((v11 - v01) - (v10 - v00))
    gz = v1 - v0
    grads = np.stack([gx, gy, gz], axis=1) / spacing
    vals[oob] = 0.0
    grads[oob] = 0.0
    return vals, grads, oob


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _layout_grids(tmp_path, rng):
    """One (7, 9, 11) field stored C-ordered, F-ordered (from read_sdfg) and as
    a non-contiguous view, with the values array each was built from. Unequal
    dims catch a mixed-up stride; origin and spacing are exact binary values."""
    origin, spacing = np.array([-1.0, 0.5, 2.0]), 0.25
    values = rng.normal(size=(7, 9, 11)).astype(np.float32).astype(np.float64)
    write_sdfg(tmp_path / "f.sdfg", SdfGrid(values, origin, spacing))
    f_values = np.frombuffer((tmp_path / "f.sdfg").read_bytes()[52:], dtype="<f4").reshape(
        (7, 9, 11), order="F").astype(np.float64)
    assert f_values.flags.f_contiguous and np.array_equal(f_values, values)
    strided = rng.normal(size=(14, 10, 11))[::2, 1:, ::-1]
    assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
    return [("C", values, SdfGrid(values, origin, spacing)),
            ("F", f_values, read_sdfg(tmp_path / "f.sdfg")),
            ("strided", strided, SdfGrid(strided, origin, spacing))]


def test_sampler_matches_eight_gather_bit_for_bit(tmp_path, rng):
    for name, values, g in _layout_grids(tmp_path, rng):
        n = np.array(values.shape)
        # A mixed batch: grid coordinates from -2 to n + 1 on every axis.
        u = rng.uniform(-2.0, n + 1.0, size=(600, 3))
        # Exact stencil edges: u = 0 keeps a full stencil, u = n - 1 does not.
        edges = rng.uniform(0.0, n - 1.0, size=(6, 3))
        for axis in range(3):
            edges[2 * axis, axis] = 0.0
            edges[2 * axis + 1, axis] = n[axis] - 1.0
        pts = g.origin + g.spacing * np.vstack([u, edges])
        back = (pts[-6:] - g.origin) / g.spacing
        assert all(back[2 * a, a] == 0.0 and back[2 * a + 1, a] == n[a] - 1 for a in range(3))
        ref_vals, ref_grads, oob = _eight_gather_reference(values, g.origin, g.spacing, pts)
        assert 0 < oob.sum() < len(pts) and list(oob[-6:]) == [False, True] * 3
        vals, grads = sample_zero_outside(g, pts)
        assert _same_bits(vals, ref_vals) and _same_bits(grads, ref_grads), name
        assert np.all(vals[oob] == 0.0) and np.all(grads[oob] == 0.0)


def test_sampler_all_outside_and_empty_batches(tmp_path, rng):
    for name, values, g in _layout_grids(tmp_path, rng):
        far = g.origin + g.spacing * rng.uniform(-5.0, -0.01, size=(40, 3))
        far[::2] += g.spacing * (np.array(values.shape) + 4.0)
        far[5] = np.nan
        vals, grads = sample_zero_outside(g, far)
        assert _same_bits(vals, np.zeros(40)) and _same_bits(grads, np.zeros((40, 3))), name
        vals, grads = sample_zero_outside(g, np.empty((0, 3)))
        assert vals.shape == (0,) and grads.shape == (0, 3), name


def test_stacked_sampler_matches_each_grid_alone(rng):
    """sample_grids on a stack of 3 grids gives each point the bits that
    sample_zero_outside gives it on its own grid alone."""
    shape = np.array([6, 5, 4])
    # Dyadic origin and spacing, so the edge points below map back exactly.
    origin, spacing = np.array([0.0, -0.25, 0.5]), 0.125
    signed = mesh_to_sdf(make_box(), resolution=6).values[:, :5, :4]
    stack = np.stack([signed, np.maximum(-signed, 0.0), rng.normal(size=shape)])
    u = rng.uniform(-2.0, shape + 1.0, size=(300, 3))
    # The last full-stencil cell, from its low corner, and u = n - 1, outside.
    edges = rng.integers(0, shape - 1, size=(9, 3)) + 0.25
    for axis in range(3):
        edges[3 * axis, axis] = shape[axis] - 2.0
        edges[3 * axis + 1, axis] = shape[axis] - 1.5
        edges[3 * axis + 2, axis] = shape[axis] - 1.0
    pts = origin + spacing * np.vstack([u, edges, rng.uniform(0.0, shape - 1.0, size=(8, 3))])
    assert np.array_equal((pts[300:309] - origin) / spacing, edges)
    # NaN, infinite and negative-zero coordinates; -0.0 - 0.0 is -0.0, inside.
    pts[-8:, 0] = [np.nan, np.inf, -np.inf, -0.0, -0.0, 0.0, np.nan, -np.inf]
    pts[-2:, 1] = [np.inf, np.nan]
    grid = rng.integers(0, 3, size=len(pts))
    vals, grads = np.zeros(len(pts)), np.zeros((len(pts), 3))
    inside, vals_in, grads_in = sample_grids(
        stack, spacing, grid, np.subtract(pts.T, origin[:, None], order="C") / spacing)
    vals[inside], grads[inside] = vals_in, grads_in
    assert grads_in.flags.c_contiguous and np.all(np.diff(inside) > 0)
    for k in range(3):
        alone = sample_zero_outside(SdfGrid(stack[k], origin, spacing), pts[grid == k])
        assert np.array_equal(vals[grid == k], alone[0])
        assert np.array_equal(grads[grid == k], alone[1])
    outside = np.r_[np.any((u < 0) | (u >= shape - 1), axis=1), [False, False, True] * 3,
                    [True, True, True, False, False, False, True, True]]
    assert inside.tolist() == np.flatnonzero(~outside).tolist()
    assert np.any(vals[inside] != 0.0) and np.any(grads[inside] != 0.0)


@pytest.fixture(scope="module")
def cube_sdf():
    return mesh_to_sdf(make_box(), resolution=32)


def test_mesh_to_sdf_open_mesh_raises(open_box):
    with pytest.raises(NonWatertight):
        mesh_to_sdf(open_box, resolution=12)



@pytest.mark.parametrize("resolution", [2**21, 2**63 - 1, 2**63])
def test_mesh_to_sdf_unaddressable_resolution_raises(resolution):
    """A grid whose voxel centres numpy could not address is refused before
    any allocation."""
    with pytest.raises(MemoryError, match=rf"a {resolution}\^3 SDF grid is too large"):
        mesh_to_sdf(make_box(), resolution=resolution)


def test_mesh_to_sdf_center_depth(cube_sdf):
    center = np.array([15, 15, 15])  # voxel nearest the origin
    assert abs(cube_sdf.values[tuple(center)] - (-0.5)) < cube_sdf.spacing


def test_mesh_to_sdf_matches_analytic_cube(cube_sdf):
    centers = cube_sdf.voxel_centers().reshape(-1, 3)
    oracle = _cube_sdf_oracle(centers)
    assert np.allclose(cube_sdf.values.reshape(-1), oracle, atol=1e-9)


def test_mesh_to_sdf_sign_consistency(cube_sdf):
    centers = cube_sdf.voxel_centers().reshape(-1, 3)
    inside = np.all(np.abs(centers) < 0.5, axis=1)
    assert np.array_equal(cube_sdf.values.reshape(-1) < 0, inside)


def test_sampled_field_lipschitz(cube_sdf, rng):
    lo = cube_sdf.origin + cube_sdf.spacing
    hi = cube_sdf.origin + cube_sdf.spacing * (np.array(cube_sdf.resolution) - 2)
    a = rng.uniform(lo, hi, size=(200, 3))
    b = rng.uniform(lo, hi, size=(200, 3))
    va, _ = sample_zero_outside(cube_sdf, a)
    vb, _ = sample_zero_outside(cube_sdf, b)
    slack = np.linalg.norm(a - b, axis=1) + 2.0 * cube_sdf.spacing
    assert np.all(np.abs(va - vb) <= slack)


def _sample_one(g, x):
    """Value and gradient at one point, through a one-point batch."""
    vals, grads = sample_zero_outside(g, np.reshape(x, (1, 3)))
    return vals[0], grads[0]


def test_trilinear_at_voxel_center(cube_sdf):
    idx = (7, 9, 11)
    x = cube_sdf.origin + cube_sdf.spacing * np.array(idx)
    val, _ = _sample_one(cube_sdf, x)
    assert val == cube_sdf.values[idx]


def test_trilinear_midpoint_mean():
    values = np.zeros((3, 3, 3))
    values[1, 1, 1] = 2.0
    values[2, 1, 1] = 4.0
    g = SdfGrid(values, np.zeros(3), 1.0)
    val, _ = _sample_one(g, np.array([1.5, 1.0, 1.0]))
    assert abs(val - 3.0) < 1e-15


def test_trilinear_matches_oracle(cube_sdf, rng):
    lo = cube_sdf.origin + cube_sdf.spacing
    hi = cube_sdf.origin + cube_sdf.spacing * (np.array(cube_sdf.resolution) - 2)
    for _ in range(100):
        x = rng.uniform(lo, hi)
        val, _ = _sample_one(cube_sdf, x)
        assert abs(val - _trilinear_oracle(cube_sdf, x)) < 1e-12


def test_trilinear_gradient_fd(cube_sdf, rng):
    lo = cube_sdf.origin + cube_sdf.spacing
    hi = cube_sdf.origin + cube_sdf.spacing * (np.array(cube_sdf.resolution) - 2)
    eps = 1e-6
    checked = 0
    for _ in range(300):
        x = rng.uniform(lo, hi)
        # Stay away from cell faces where the blend changes stencils.
        frac = (x - cube_sdf.origin) / cube_sdf.spacing % 1.0
        if np.any(frac < 0.05) or np.any(frac > 0.95):
            continue
        _, grad = _sample_one(cube_sdf, x)
        fd = np.zeros(3)
        for a in range(3):
            e = np.zeros(3)
            e[a] = eps
            fd[a] = (_sample_one(cube_sdf, x + e)[0]
                     - _sample_one(cube_sdf, x - e)[0]) / (2 * eps)
        denom = max(np.linalg.norm(fd), 1e-10)
        assert np.linalg.norm(grad - fd) / denom < 1e-5
        checked += 1
    assert checked >= 100


def test_sample_zero_outside(cube_sdf):
    pts = np.array([[10.0, 0, 0], [0.0, 0, 0]])
    vals, grads = sample_zero_outside(cube_sdf, pts)
    assert vals[0] == 0.0 and np.all(grads[0] == 0.0)
    assert vals[1] < 0.0  # cube interior


def test_clamp_interior_values():
    g = SdfGrid(np.array([[[0.3, -0.3]]]), np.zeros(3), 1.0)
    c = clamp_interior(g)
    assert c.values[0, 0, 0] == 0.0
    assert c.values[0, 0, 1] == 0.3


def test_clamp_interior_loop_oracle(cube_sdf):
    c = clamp_interior(cube_sdf)
    for idx in np.ndindex(4, 4, 4):  # spot-check a corner block
        assert c.values[idx] == max(-cube_sdf.values[idx], 0.0)
    assert np.array_equal(c.values, np.maximum(-cube_sdf.values, 0.0))


def test_sdfg_round_trip(tmp_path, cube_sdf):
    path = tmp_path / "cube.sdfg"
    write_sdfg(path, cube_sdf)
    back = read_sdfg(path)
    assert back.resolution == cube_sdf.resolution
    assert np.allclose(back.origin, cube_sdf.origin)
    assert back.spacing == cube_sdf.spacing
    # Values survive the f32 round trip exactly once quantized.
    assert np.array_equal(back.values,
                          cube_sdf.values.astype(np.float32).astype(np.float64))
    write_sdfg(tmp_path / "cube2.sdfg", back)
    assert (tmp_path / "cube.sdfg").read_bytes() == (tmp_path / "cube2.sdfg").read_bytes()


def test_sdfg_header_layout(tmp_path):
    g = SdfGrid(np.arange(8.0).reshape(2, 2, 2), np.array([0.5, 1.5, 2.5]), 0.25)
    path = tmp_path / "tiny.sdfg"
    write_sdfg(path, g)
    raw = path.read_bytes()
    assert raw[:4] == b"SDFG"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert [int.from_bytes(raw[8 + 4 * k:12 + 4 * k], "little") for k in range(3)] == [2, 2, 2]
    assert len(raw) == 52 + 8 * 4  # header + values
    vals = np.frombuffer(raw[52:], dtype="<f4")
    # x-fastest ordering: value at (1,0,0) comes second.
    assert vals[1] == g.values[1, 0, 0]


def test_sdfg_bad_magic(tmp_path):
    path = tmp_path / "bad.sdfg"
    path.write_bytes(b"NOPE" + b"\x00" * 48)
    with pytest.raises(ValueError):
        read_sdfg(path)


@pytest.mark.parametrize("origin, spacing", [
    ([np.nan, 0.0, 0.0], 0.1), ([0.0, -np.inf, 0.0], 0.1), ([0.0, 0.0, 0.0], np.nan),
    ([0.0, 0.0, 0.0], np.inf), ([0.0, 0.0, 0.0], 0.0), ([0.0, 0.0, 0.0], -0.1),
])
def test_sdfg_header_must_be_finite(tmp_path, origin, spacing):
    # A NaN spacing puts every sample off the grid: the field would read 0.
    with pytest.raises(ValueError):
        SdfGrid(np.ones((4, 4, 4)), origin, spacing)
    path = tmp_path / "bad.sdfg"
    write_sdfg(path, SdfGrid(np.ones((4, 4, 4)), np.zeros(3), 0.1))
    raw = path.read_bytes()
    path.write_bytes(raw[:20] + struct.pack("<3dd", *origin, spacing) + raw[52:])
    with pytest.raises(MalformedFile, match=f"^{path}: (origin|spacing) "):
        read_sdfg(path)


def test_heatmap_round_trip(tmp_path, rng):
    hm = rng.random((12, 16, 3))
    path = tmp_path / "hm.sdfg"
    write_heatmap(path, hm)
    back = read_heatmap(path)
    assert back.shape == hm.shape
    assert np.array_equal(back, hm.astype(np.float32).astype(np.float64))
