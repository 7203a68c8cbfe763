"""Differentiable inter-object collision energy.

Each object carries a clamped interior-depth field (positive inside, zero
outside) and a canonical surface point cloud. The energy of object i sums the
depth of its points inside every other object's field; the per-object energy
is passed through the bounded Geman-McClure penalty.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroScale
from .geom import Pose9DoF, apply_pose_backward, sum_points
from .sdf import SdfGrid, sample_zero_outside


@dataclass(frozen=True)
class SceneObject:
    """One placed object with cached canonical-frame collision data."""

    class_id: int
    exemplar_index: int
    pose: Pose9DoF
    clamped_sdf: SdfGrid  # interior depth field, canonical frame
    points: np.ndarray    # (n, 3) canonical surface samples


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
    with np.errstate(over="ignore"):  # an offset past the float range is inf: outside every field
        b = (j.pose.r.m.T @ (i.pose.t - j.pose.t)) / sj
    return a, b


def pair_maps(scene: list[SceneObject]) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each target j, the points of every other object i under the linear
    part A of relative_transform(i, j), stacked in ascending i into one (m, 3)
    array, and the bounds of the sources' segments: j's k-th source (the k-th
    i != j) holds rows bounds[k]:bounds[k + 1].

    A depends only on rotations and scales, so a translation-only descent
    forms these once per run and passes them to translation_step.
    """
    maps = []
    for j, obj_j in enumerate(scene):
        sources = [obj_i for i, obj_i in enumerate(scene) if i != j]
        bounds = np.cumsum([0] + [len(obj_i.points) for obj_i in sources])
        stack = np.empty((bounds[-1], 3))
        for obj_i, lo, hi in zip(sources, bounds, bounds[1:]):
            a, _ = relative_transform(obj_i, obj_j)
            stack[lo:hi] = obj_i.points @ a.T
        maps.append((stack, bounds))
    return maps


def translation_step(
    scene: list[SceneObject], maps: list[tuple[np.ndarray, np.ndarray]], t: np.ndarray
) -> tuple[float, np.ndarray]:
    """collision_loss_total and the (n, 3) translation gradients of
    collision_gradient, for `scene` with its translations replaced by the rows
    of t; `maps` is pair_maps(scene).

    Each target's field is sampled once, on the stacked points of all its
    sources, each segment shifted by its own offset b of relative_transform.
    Both results are bit-identical to those functions: every point is the
    same y = A x + b with the same per-point arithmetic, each pair's depth is
    the sum of its own contiguous segment, and the sums run in the same order.
    The offsets of all of a target's sources come from one (m, 3) @ (3, 3)
    product, whose rows have the bits of relative_transform's R_j^T (t_i - t_j).
    """
    n = len(scene)
    total, grad = 0.0, np.zeros(np.shape(t))  # an empty scene's t may be (0,)
    rts = [np.ascontiguousarray(o.pose.r.m.T) for o in scene]  # as collision_gradient's
    sampled = {}  # (i, j): values and field gradients of i's points in j's field
    for j, (obj_j, (stack, bounds)) in enumerate(zip(scene, maps)):
        sources = [i for i in range(n) if i != j]
        offsets = ((t[sources] - t[j]) @ obj_j.pose.r.m) / obj_j.pose.s
        vals, grad_field = sample_zero_outside(
            obj_j.clamped_sdf, stack + np.repeat(offsets, np.diff(bounds), axis=0))
        for i, lo, hi in zip(sources, bounds, bounds[1:]):
            sampled[i, j] = vals[lo:hi], grad_field[lo:hi]
    for i in range(n):
        energy, fields = 0.0, []
        for j in range(n):
            if j != i:
                vals, grad_field = sampled[i, j]
                energy += float(vals.sum())
                fields.append((j, grad_field))
        total += geman_mcclure(energy)
        rho_prime = geman_mcclure_deriv(energy)
        if rho_prime == 0.0:
            continue
        for j, grad_field in fields:
            g = rho_prime * grad_field
            if np.any(g):
                dt = sum_points((g / scene[j].pose.s) @ rts[j])
                grad[i] += dt
                grad[j] -= dt
    return total, grad


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
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Loss and exact per-object gradients of collision_loss_total.

    Gradients are w.r.t. each object's rotation matrix entries, translation,
    and scale, stacked as (n, 3, 3), (n, 3) and (n, 3) arrays.
    """
    grads_r = np.zeros((len(scene), 3, 3))
    grads_t, grads_s = np.zeros((len(scene), 3)), np.zeros((len(scene), 3))
    total, energies = 0.0, []
    for idx, obj in enumerate(scene):
        energies.append(collision_energy_single(obj, scene[:idx] + scene[idx + 1:]))
        total += geman_mcclure(energies[-1])

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
            sx = si * obj_i.points
            # A C-ordered right operand takes matmul's fast path, with the same bits.
            dr, dt, ds = apply_pose_backward(
                ri, sx, obj_i.points, (g / sj) @ np.ascontiguousarray(rj.T))
            grads_r[i] += dr
            grads_t[i] += dt
            grads_s[i] += ds
            u = sx @ ri.T + ti - tj  # w - t_j
            grads_t[j] -= dt
            grads_r[j] += u.T @ (g / sj)
            grads_s[j] -= sum_points(g * y / sj)
    return total, (grads_r, grads_t, grads_s)
