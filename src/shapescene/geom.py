"""Elementary 3D types: rotations, 9-DoF poses, and the SVD projection onto SO(3).

All functions are pure and operate on plain numpy arrays; a raw (unconstrained)
3x3 matrix is just an ndarray, while validated rotations are wrapped in
``Rotation`` so downstream code can rely on orthogonality.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMatrix


@dataclass(frozen=True)
class Rotation:
    """A 3x3 matrix constrained to SO(3) (orthogonal, det = +1)."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {m.shape}")
        if not np.all(np.isfinite(m)):  # before m.T @ m, which would warn on inf
            raise ValueError("matrix has non-finite entries")
        err = np.linalg.norm(m.T @ m - np.eye(3))
        if err > 1e-7:
            raise ValueError(f"matrix is not orthogonal (|R^T R - I|_F = {err:.3e})")
        if abs(np.linalg.det(m) - 1.0) > 1e-7:
            raise ValueError("matrix has det != +1 (reflection or degenerate)")
        object.__setattr__(self, "m", m)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.eye(3))


@dataclass(frozen=True)
class Pose9DoF:
    """Rotation + translation + anisotropic per-axis scale.

    Composition order is fixed: scale, then rotate, then translate,
    i.e. ``x_world = R @ (s * x) + t``.
    """

    r: Rotation = field(default_factory=Rotation.identity)
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))
    s: np.ndarray = field(default_factory=lambda: np.ones(3))

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64).reshape(3)
        s = np.asarray(self.s, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(s))):
            raise ValueError("pose has non-finite components")
        if np.any(s <= 0):
            raise ValueError("pose scale components must be positive")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s", s)

    @staticmethod
    def identity() -> "Pose9DoF":
        return Pose9DoF()


def project_to_so3(m: np.ndarray) -> Rotation | np.ndarray:
    """Project an arbitrary 3x3 matrix onto the nearest rotation (Frobenius).

    Uses the SVD construction R = U diag(1, 1, det(U V^T)) V^T, which among
    all rotations minimizes |R - M|_F. A 3x3 input gives a Rotation, an
    (n, 3, 3) stack the (n, 3, 3) array of the rotations of its matrices.

    Raises DegenerateMatrix when, for any matrix, the two smallest singular
    values both vanish, in which case the nearest rotation is not unique.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim not in (2, 3) or m.shape[-2:] != (3, 3) or not np.all(np.isfinite(m)):
        raise ValueError("expected a finite 3x3 matrix or (n, 3, 3) stack")
    u, sv, vt = np.linalg.svd(m)
    if np.any((sv[..., 1] < 1e-12) & (sv[..., 2] < 1e-12)):
        raise DegenerateMatrix(
            "two smallest singular values below 1e-12; nearest rotation not unique"
        )
    diag = np.broadcast_to(np.eye(3), m.shape).copy()  # diag(1, 1, d), as np.diag built it
    diag[..., 2, 2] = np.sign(np.linalg.det(u @ vt))
    r = u @ diag @ vt
    # Not needed for orthogonality (one SVD gives |R^T R - I| near 1e-15): a second
    # SVD makes the projection a bit-exact fixpoint on 77% of generated yaw rotations
    # against 55%, as tests/test_optim.py::test_fit_poses_ground_truth_init needs.
    u, _, vt = np.linalg.svd(r)
    diag[..., 2, 2] = np.sign(np.linalg.det(u @ vt))
    r = u @ diag @ vt
    return Rotation(r) if m.ndim == 2 else r


def chain_rotation_grad(r: np.ndarray, m: np.ndarray, grad_r: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. the projected rotation back to the raw matrix.

    Vector-Jacobian product of the projection r = project_to_so3(m), which
    the caller has already made, through the polar decomposition m = r P
    (Higham, "Computing the polar decomposition", 1986): P = r^T m is
    symmetric for either sign of det m, and a step dm turns r by dr = r [w]x
    with (tr P I - P) w = vee(r^T dm - dm^T r). Transposed, that gives
    grad_M = r [w]x with (tr P I - P) w = vee(r^T grad_R - grad_R^T r); the
    rows of r [w]x are the rows of r crossed with w. r is an array; r, m and
    grad_r broadcast over (..., 3, 3).

    With m = U diag(s1, s2, s3) V^T, s1 >= s2 >= s3, and r = U diag(1, 1, d) V^T,
    tr P I - P has eigenvalues s1 + s2, s1 + d s3 and s2 + d s3. For d = 1
    they vanish only at s2 = s3 = 0, which project_to_so3 rejects; for d = -1
    at s2 = s3, where the projection is not differentiable. There the result
    is NaN or inf, without a warning.
    """
    p, x = r.swapaxes(-1, -2) @ m, r.swapaxes(-1, -2) @ grad_r
    i, j = [1, 2, 0], [2, 0, 1]  # a x b = a[i] b[j] - a[j] b[i], rolled
    z = x[..., j, i] - x[..., i, j]  # vee(x - x^T)
    q = np.trace(p, axis1=-2, axis2=-1)[..., None, None] * np.eye(3) - p
    a, b = q[..., i, :], q[..., j, :]
    adj = a[..., i] * b[..., j] - a[..., j] * b[..., i]  # row k: column k of adj(q)
    det = np.sum(q[..., 0, :] * adj[..., 0, :], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Elementwise sums, not matmul: a stack gives each matrix's bits.
        w = np.sum(adj * z[..., :, None], axis=-2) / det[..., None]
        return r[..., i] * w[..., None, j] - r[..., j] * w[..., None, i]


def geodesic_distance(a: Rotation, b: Rotation) -> float:
    """Angle in radians of the relative rotation a^T b, clamped to [0, pi]."""
    c = (np.trace(a.m.T @ b.m) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def apply_pose(p: Pose9DoF, x: np.ndarray) -> np.ndarray:
    """Map canonical points to the world frame: R @ (s * x) + t.

    Accepts a single 3-vector or an (..., 3) batch.
    """
    x = np.asarray(x, dtype=np.float64)
    return (p.s * x) @ p.r.m.T + p.t


def sum_points(x: np.ndarray) -> np.ndarray:
    """Sum of a C-ordered (..., P, 3) array over its points.

    Adds the points one by one in point order, as x.sum(axis=-2) does, so the
    bits are the same; einsum's loop is faster on 3-wide rows, where sum's
    inner loop runs over only 3 elements.
    """
    return np.einsum("...pk->...k", x)


def apply_pose_backward(r: np.ndarray, sx: np.ndarray, x: np.ndarray, g: np.ndarray):
    """(grad_R, grad_t, grad_s) of R (s * x) + t given g = dL/d(world point),
    on raw arrays r (..., 3, 3), the scaled points sx = s * x, x and g
    (..., P, 3); the callers have already formed sx for the forward pass."""
    return g.swapaxes(-1, -2) @ sx, sum_points(g), sum_points((g @ r) * x)


def rotation_about_axis(axis: np.ndarray, angle: float) -> Rotation:
    """Rodrigues rotation by `angle` radians about a (non-zero) axis."""
    axis = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(axis)
    if n < 1e-15:
        raise ValueError("axis must be non-zero")
    k = axis / n
    kx = np.array([
        [0.0, -k[2], k[1]],
        [k[2], 0.0, -k[0]],
        [-k[1], k[0], 0.0],
    ])
    r = np.eye(3) + np.sin(angle) * kx + (1.0 - np.cos(angle)) * (kx @ kx)
    return project_to_so3(r)


def random_rotation(rng: np.random.Generator) -> Rotation:
    """Uniform-ish random rotation from a projected Gaussian matrix."""
    return project_to_so3(rng.normal(size=(3, 3)))
