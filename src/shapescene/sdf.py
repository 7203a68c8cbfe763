"""Voxelized signed distance fields and differentiable trilinear sampling.

Grids are stored dense as float64 (nx, ny, nz) arrays with the world position
of voxel (0,0,0)'s center as `origin` and uniform cubic `spacing`. On disk the
values are float32 in the SDFG container (see write_sdfg).
"""
from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import MalformedFile
from .mesh import (PointBricks, TriMesh, grid_axes, grid_centers, point_triangle_distance,
                   points_inside, require_watertight)

SDFG_MAGIC = b"SDFG"
_SDFG_HEADER = struct.Struct("<4sI3I3dd")
# The smallest mesh_to_sdf resolution: one voxel inside 2 of padding on each side.
MIN_SDF_RESOLUTION = 5


@dataclass(frozen=True)
class SdfGrid:
    """Dense scalar grid with voxel-center origin and uniform spacing."""

    values: np.ndarray
    origin: np.ndarray
    spacing: float

    def __post_init__(self):
        # C order makes values.ravel() a view, so the sampler gathers without a copy.
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        o = np.asarray(self.origin, dtype=np.float64).reshape(3)
        if v.ndim != 3:
            raise ValueError("values must be a 3D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid contains non-finite values")
        if not np.all(np.isfinite(o)):
            raise ValueError(f"origin {o} is not finite")
        if not 0 < self.spacing < np.inf:  # NaN fails too
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "spacing", float(self.spacing))

    @property
    def resolution(self) -> tuple[int, int, int]:
        return self.values.shape

    def voxel_centers(self) -> np.ndarray:
        """(nx, ny, nz, 3) world coordinates of all voxel centers."""
        return grid_centers(self.origin, self.spacing, (0, 0, 0), self.values.shape)


def mesh_to_sdf(mesh: TriMesh, resolution: int = 32) -> SdfGrid:
    """Discretize the signed distance of a canonical mesh on a cubic grid.

    The grid covers the unit cube [-0.5, 0.5]^3 plus 2 voxels of padding on
    each side, so `resolution` includes the padding. Sign comes from parity
    ray casting along +x/+y/+z with majority vote, on the voxel-centre
    lattice that `points_inside` takes as its three axes (`grid_axes`):
    each line of voxels along an axis shares one ray, whose crossings are
    compared with every start on that axis.
    Magnitude is the exact distance to the nearest triangle, from
    `point_triangle_distance`, which tests each triangle only against the
    bricks of voxels that may have it as their nearest, by the distance from
    the brick's centre: first against the coarse bricks, then, for the
    coarse bricks it passes, against their eight fine children. It gives
    the bits that testing every voxel against every triangle's owned
    features gives: the plane, or the edges the triangle owns.

    The lattice depends on the resolution alone, so its axes and its
    voxel centres' bricks (`PointBricks`) are built once per resolution and
    process, and kept for the next mesh until another resolution is asked
    for (`_lattice`).
    """
    if resolution < MIN_SDF_RESOLUTION:
        raise ValueError("resolution must leave room for 2 voxels of padding")
    if 24 * resolution**3 > np.iinfo(np.intp).max:  # numpy could not form the centres
        raise MemoryError(f"a {resolution}^3 SDF grid is too large to allocate")
    origin, h, axes, bricks = _lattice(resolution)
    inside, disagreement = points_inside(mesh, axes)
    require_watertight(disagreement)
    dist = point_triangle_distance(bricks, mesh)
    values = np.where(inside, -dist, dist).reshape(resolution, resolution, resolution)
    return SdfGrid(values, origin.copy(), h)


@functools.lru_cache(maxsize=1)
def _lattice(resolution: int):
    """The origin, spacing, axes and voxel-centre `PointBricks` of
    mesh_to_sdf's grid at `resolution`, read-only. One resolution's are
    kept, by each process that asks: at 32^3 the bricks hold 1.3 MB, at
    128^3 67 MB. A worker forked after a call starts with them."""
    h = 1.0 / (resolution - 4)
    origin = np.full(3, -0.5 - 1.5 * h)
    origin.flags.writeable = False
    grid = (origin, h, (0, 0, 0), (resolution,) * 3)
    axes = tuple(grid_axes(*grid))
    for axis in axes:
        axis.flags.writeable = False
    return origin, h, axes, PointBricks(grid_centers(*grid).reshape(-1, 3))


def clamp_interior(g: SdfGrid) -> SdfGrid:
    """Interior-depth field: max(-phi, 0); positive inside, zero outside."""
    return SdfGrid(np.maximum(-g.values, 0.0), g.origin, g.spacing)


def sample_zero_outside(g: SdfGrid, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trilinearly interpolated values and their exact spatial gradients at
    a batch of points.

    Only the points with a complete 8-corner stencil are interpolated; every
    other point gets value 0 and gradient 0. This matches the clamped-interior
    field convention: the field vanishes outside the grid, so optimization
    never sees boundary errors. This is the one-grid case of sample_grids.
    """
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    vals = np.zeros(len(pts))
    grads = np.zeros((len(pts), 3))
    # Grid coordinates as (3, m) rows, so each operation runs along the points.
    u = np.subtract(pts.T, g.origin[:, None], order="C") / g.spacing
    inside, vals_in, grads_in = sample_grids(g.values[None], g.spacing,
                                             np.zeros(len(pts), dtype=np.intp), u)
    vals[inside] = vals_in
    grads[inside] = grads_in
    return vals, grads


def sample_grids(values: np.ndarray, spacing: float, grid: np.ndarray,
                 u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trilinear values and exact spatial gradients of the points that have a
    complete 8-corner stencil in their own grid.

    `values` is a C-ordered (k, nx, ny, nz) stack of grids that share one
    origin and `spacing`. Column p of the C-ordered (3, m) rows `u` holds
    point p's grid coordinates, (x - origin) / spacing, in grid grid[p] of
    the (m,) integer array `grid`. Returns the ascending indices of the
    points with a full stencil, their values, and their gradients as a
    C-ordered (., 3) array; every other point, and every point with a NaN
    or infinite coordinate, is outside.
    """
    # floor(u) lies in [0, n - 2] on every axis; a NaN fails both tests.
    ok = (u >= 0.0) & (u < np.subtract(values.shape[1:], 1)[:, None])
    inside = np.flatnonzero(ok[0] & ok[1] & ok[2])
    u = u.take(inside, axis=1)
    i = np.floor(u).astype(np.int64)
    fx, fy, fz = u - i

    # One gather of the whole stencil from the flat C-ordered stack, where
    # corner (ix + a, iy + b, iz + c) sits a*sx + b*sy + c past corner (ix, iy, iz).
    # Grid k starts k*nx*sx into the stack.
    _, nx, ny, nz = values.shape
    sx, sy = ny * nz, nz
    steps = np.array([0, sx, sy, sx + sy, 1, sx + 1, sy + 1, sx + sy + 1])
    base = np.array([sx, sy, 1]) @ i + grid[inside] * (nx * sx)
    v000, v100, v010, v110, v001, v101, v011, v111 = values.ravel().take(
        steps[:, None] + base)

    # Interpolate along x, then y, then z; keep intermediates for the gradient.
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
    return inside, vals, np.stack([gx, gy, gz], axis=1) / spacing


def write_sdfg(path, g: SdfGrid, version: int = 1) -> None:
    """Bit-exact SDFG container: magic, u32 version, u32 dims, f64 origin,
    f64 spacing, then float32 values in x-fastest order (all little-endian)."""
    nx, ny, nz = g.values.shape
    with open(path, "wb") as fh:
        fh.write(_SDFG_HEADER.pack(SDFG_MAGIC, version, nx, ny, nz, *g.origin, g.spacing))
        fh.write(np.asarray(g.values, dtype="<f4").ravel(order="F").tobytes())


def read_sdfg(path) -> SdfGrid:
    """Read an SDFG container (see write_sdfg); MalformedFile if it is not one."""
    with open(path, "rb") as fh:
        header = fh.read(_SDFG_HEADER.size)
        if header[:4] != SDFG_MAGIC:
            raise MalformedFile(f"{path}: bad magic {header[:4]!r}")
        if len(header) < _SDFG_HEADER.size:
            raise MalformedFile(f"{path}: truncated header ({len(header)} bytes)")
        version, nx, ny, nz, ox, oy, oz, spacing = _SDFG_HEADER.unpack(header)[1:]
        if version not in (1, 2):
            raise MalformedFile(f"{path}: unsupported version {version}")
        expected = nx * ny * nz * 4
        found = os.fstat(fh.fileno()).st_size - _SDFG_HEADER.size
        if found != expected:
            raise MalformedFile(
                f"{path}: {nx}x{ny}x{nz} grid needs {expected} payload bytes, found {found}"
            )
        payload = fh.read(expected)
    values = np.frombuffer(payload, dtype="<f4").reshape((nx, ny, nz), order="F")
    try:
        return SdfGrid(values, np.array([ox, oy, oz]), spacing)
    except ValueError as e:
        raise MalformedFile(f"{path}: {e}") from None


def write_heatmap(path, values: np.ndarray) -> None:
    """Serialize an (H, W, C) heatmap as an SDFG version-2 container.

    Dims are stored as (W, H, C) with x-fastest order over the width axis.
    """
    values = np.asarray(values, dtype=np.float64)
    h, w, c = values.shape
    grid = SdfGrid(np.transpose(values, (1, 0, 2)), np.zeros(3), 1.0)
    write_sdfg(path, grid, version=2)


def read_heatmap(path) -> np.ndarray:
    grid = read_sdfg(path)
    return np.transpose(grid.values, (1, 0, 2))
