"""Differentiable inter-object collision energy.

Each object carries a clamped interior-depth field (positive inside, zero
outside) and a canonical surface point cloud. The energy of object i sums the
depth of its points inside every other object's field; the per-object energy
is passed through the bounded Geman-McClure penalty.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ZeroScale
from .geom import Pose9DoF, chain_rotation_grad
from .sdf import SdfGrid, sample_zero_outside


@dataclass(frozen=True)
class SceneObject:
    """One placed object with cached canonical-frame collision data."""

    class_id: int
    exemplar_index: int
    pose: Pose9DoF
    clamped_sdf: SdfGrid  # interior depth field, canonical frame
    points: np.ndarray    # (n, 3) canonical surface samples

    def with_pose(self, pose: Pose9DoF) -> "SceneObject":
        return replace(self, pose=pose)


def geman_mcclure(x: float) -> float:
    return (x * x / 2.0) / (1.0 + x * x)


def geman_mcclure_deriv(x: float) -> float:
    return x / (1.0 + x * x) ** 2


def relative_transform(i: SceneObject, j: SceneObject) -> tuple[np.ndarray, np.ndarray]:
    """Affine map (A, b) taking i's canonical points into j's canonical frame:
    y = A x + b with A = S_j^-1 R_j^T R_i S_i."""
    sj = j.pose.s
    if np.any(sj < 1e-12):
        raise ZeroScale("target pose has a near-zero scale component")
    a = (j.pose.r.m.T @ i.pose.r.m) * i.pose.s[None, :] / sj[:, None]
    b = (j.pose.r.m.T @ (i.pose.t - j.pose.t)) / sj
    return a, b


def collision_energy_single(i: SceneObject, others: list[SceneObject]) -> float:
    """Summed interior depth of i's points inside each other object's field."""
    energy = 0.0
    for j in others:
        a, b = relative_transform(i, j)
        vals, _ = sample_zero_outside(j.clamped_sdf, i.points @ a.T + b)
        energy += float(vals.sum())
    return energy


def collision_loss_total(scene: list[SceneObject]) -> float:
    """Sum over objects of the Geman-McClure penalty of their collision energy."""
    total = 0.0
    for idx, obj in enumerate(scene):
        others = scene[:idx] + scene[idx + 1:]
        total += geman_mcclure(collision_energy_single(obj, others))
    return total


def collision_gradient(
    scene: list[SceneObject],
    raw_matrices: list[np.ndarray] | None = None,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Loss and exact per-object gradients of collision_loss_total.

    Gradients are w.r.t. each object's rotation matrix entries, translation,
    and scale. When `raw_matrices` is given, rotation gradients are chained
    through the SO(3) projection so they apply to the unconstrained matrices.
    """
    m = len(scene)
    grads_r = [np.zeros((3, 3)) for _ in range(m)]
    grads_t = [np.zeros(3) for _ in range(m)]
    grads_s = [np.zeros(3) for _ in range(m)]
    total = 0.0

    energies = []
    for idx, obj in enumerate(scene):
        others = scene[:idx] + scene[idx + 1:]
        e = collision_energy_single(obj, others)
        energies.append(e)
        total += geman_mcclure(e)

    for i, obj_i in enumerate(scene):
        rho_prime = geman_mcclure_deriv(energies[i])
        if rho_prime == 0.0:
            continue
        for j, obj_j in enumerate(scene):
            if j == i:
                continue
            a, b = relative_transform(obj_i, obj_j)
            y = obj_i.points @ a.T + b
            _, grad_field = sample_zero_outside(obj_j.clamped_sdf, y)
            g = rho_prime * grad_field              # (n, 3) = dL/dy
            if not np.any(g):
                continue
            ri, si, ti = obj_i.pose.r.m, obj_i.pose.s, obj_i.pose.t
            rj, sj, tj = obj_j.pose.r.m, obj_j.pose.s, obj_j.pose.t
            g_w = (g / sj) @ rj.T                   # dL/d(world point w)
            grads_t[i] += g_w.sum(axis=0)
            grads_r[i] += g_w.T @ (si * obj_i.points)
            grads_s[i] += ((g_w @ ri) * obj_i.points).sum(axis=0)
            u = (si * obj_i.points) @ ri.T + ti - tj  # w - t_j
            grads_t[j] -= g_w.sum(axis=0)
            grads_r[j] += u.T @ (g / sj)
            grads_s[j] -= (g * y / sj).sum(axis=0)

    if raw_matrices is not None:
        grads_r = [chain_rotation_grad(mraw, gr)
                   for mraw, gr in zip(raw_matrices, grads_r)]
    return total, list(zip(grads_r, grads_t, grads_s))
