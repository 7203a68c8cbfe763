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
        # Before m.T @ m, which warns on inf and overflows from about 1e154:
        # no entry of an orthogonal matrix lies outside [-1, 1].
        if not np.all(np.abs(m) <= 2.0):
            raise ValueError("matrix has an entry that is not finite or whose magnitude is above 2")
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

    U diag(1, 1, d) V^T is formed as U' V^T, U' being U with its third
    column times d. That gives the bits of the two products: each entry of
    U diag(1, 1, d) is one product plus exact zeros, and differs from U' at
    most in the sign of a zero, which NumPy's matmul, adding its products to
    a +0.0 accumulator, never carries into U' V^T.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim not in (2, 3) or m.shape[-2:] != (3, 3) or not np.all(np.isfinite(m)):
        raise ValueError("expected a finite 3x3 matrix or (n, 3, 3) stack")
    u, sv, vt = np.linalg.svd(m)
    if np.any((sv[..., 1] < 1e-12) & (sv[..., 2] < 1e-12)):
        raise DegenerateMatrix(
            "two smallest singular values below 1e-12; nearest rotation not unique"
        )
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    r = u @ vt
    # Not needed for orthogonality (one SVD gives |R^T R - I| near 1e-15): a second
    # SVD makes the projection a bit-exact fixpoint on 77% of generated yaw rotations
    # against 55%, as tests/test_optim.py::test_fit_poses_ground_truth_init needs.
    # r has det +1 and singular values near 1, so det(U V^T) of its SVD is +1
    # within rounding: d is 1, and the flip would change no bit.
    u, _, vt = np.linalg.svd(r)
    r = u @ vt
    return Rotation(r) if m.ndim == 2 else r


# a x b = a[i] b[j] - a[j] b[i] with the rolled axes i, j below. Each table
# holds flat indices into (..., 9) matrices or (..., 3) vectors, the minuend's
# row first: vee(x - x^T) = x[j, i] - x[i, j]; entry (k, l) of adj(q)^T is
# q[i_k, i_l] q[j_k, j_l] - q[i_k, j_l] q[j_k, i_l]; row a of r [w]x is
# r[a, i_l] w[j_l] - r[a, j_l] w[i_l].
_I, _J = np.array([1, 2, 0]), np.array([2, 0, 1])
_VEE = np.stack([3 * _J + _I, 3 * _I + _J])
_ADJ = np.array([[3 * _I[:, None] + _I, 3 * _I[:, None] + _J],
                 [3 * _J[:, None] + _J, 3 * _J[:, None] + _I]]).reshape(2, 2, 9)
_CROSS = np.array([[3 * np.arange(3)[:, None] + _I, 3 * np.arange(3)[:, None] + _J],
                   [np.broadcast_to(_J, (3, 3)), np.broadcast_to(_I, (3, 3))]]).reshape(2, 2, 9)


def _rolled_cross(a: np.ndarray, a_at: np.ndarray, b: np.ndarray, b_at: np.ndarray) -> np.ndarray:
    """a[a_at[0]] b[b_at[0]] - a[a_at[1]] b[b_at[1]] over the last axes,
    from one take of each operand and one product."""
    prod = np.take(a, a_at, axis=-1) * np.take(b, b_at, axis=-1)
    return prod[..., 0, :] - prod[..., 1, :]


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

    The gathers are takes of the tables _VEE, _ADJ and _CROSS from the
    matrices flattened to (..., 9); each entry is the same rounding of the
    same operands as with fancy indexes on (..., 3, 3), so the bits are
    those of the unflattened formulas.
    """
    p, x = r.swapaxes(-1, -2) @ m, r.swapaxes(-1, -2) @ grad_r
    z = np.take(x.reshape(x.shape[:-2] + (9,)), _VEE, axis=-1)
    z = z[..., 0, :] - z[..., 1, :]  # vee(x - x^T)
    q = np.trace(p, axis1=-2, axis2=-1)[..., None, None] * np.eye(3) - p
    q = q.reshape(q.shape[:-2] + (9,))
    adj = _rolled_cross(q, _ADJ[0], q, _ADJ[1])  # row k: column k of adj(q)
    det = np.sum(q[..., :3] * adj[..., :3], axis=-1)
    adj = adj.reshape(adj.shape[:-1] + (3, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        # Elementwise sums, not matmul: a stack gives each matrix's bits.
        w = np.sum(adj * z[..., :, None], axis=-2) / det[..., None]
        out = _rolled_cross(r.reshape(r.shape[:-2] + (9,)), _CROSS[0], w, _CROSS[1])
        return out.reshape(out.shape[:-1] + (3, 3))


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
