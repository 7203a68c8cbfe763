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
from .sdf import SdfGrid, sample_grids, sample_zero_outside


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
    # An offset past the float range is inf or NaN (inf * 0): outside every field.
    with np.errstate(over="ignore", invalid="ignore"):
        b = (j.pose.r.m.T @ (i.pose.t - j.pose.t)) / sj
    return a, b


@dataclass(frozen=True)
class PairMaps:
    """What pair_maps forms once per run for n objects of P points each.
    Ordered pair (i, j), i != j, is pair j (n - 1) + i - (i > j) of the
    stack: target-major, each target's sources ascending, and each pair
    holds P rows, one per point of its source, in point order."""

    points: np.ndarray      # (3, n (n - 1) P): A x for each row's source point x
    row_target: np.ndarray  # (n (n - 1) P,)
    rotations: np.ndarray   # (n, 3, 3)
    scales: np.ndarray      # (n, 3)
    fields: np.ndarray      # (n, nx, ny, nz) C-ordered clamped fields
    origin: np.ndarray      # (3,) the fields' shared origin
    spacing: float          # the fields' shared spacing


def pair_maps(scene: list[SceneObject]) -> PairMaps | None:
    """Every ordered pair (i, j), i != j, of `scene`, target-major, with i's
    points under the linear part A of relative_transform(i, j), and the
    objects' clamped fields stacked into one array; None when the scene has
    no ordered pair.

    A depends only on rotations and scales, so a translation-only descent
    forms these once per run and passes them to translation_step. The fields
    must share one layout (shape, origin and spacing) and the clouds one
    point count, as a database's do; ValueError if they do not. ZeroScale
    as relative_transform.
    """
    n = len(scene)
    if n < 2:
        return None
    grids = [o.clamped_sdf for o in scene]
    for k, (g, o) in enumerate(zip(grids, scene)):
        if (g.values.shape != grids[0].values.shape or g.spacing != grids[0].spacing
                or not np.array_equal(g.origin, grids[0].origin)
                or len(o.points) != len(scene[0].points)):
            raise ValueError(f"object {k}'s field layout or point count differs from object 0's")
    target, source = np.nonzero(~np.eye(n, dtype=bool))
    return PairMaps(
        points=np.concatenate([(scene[i].points @ relative_transform(scene[i], scene[j])[0].T).T
                               for i, j in zip(source, target)], axis=1),
        row_target=np.repeat(np.arange(n), (n - 1) * len(scene[0].points)),
        rotations=np.array([o.pose.r.m for o in scene]),
        scales=np.array([o.pose.s for o in scene]),
        fields=np.stack([g.values for g in grids]), origin=grids[0].origin,
        spacing=grids[0].spacing)


def _sum_rows(index: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """(size, 3) sums of the (m, 3) rows by their index, each sum adding its
    rows in row order from +0, so with sum_points' bits."""
    return np.bincount((3 * index[:, None] + np.arange(3)).ravel(), rows.ravel(),
                       minlength=3 * size).reshape(size, 3)


def translation_step(maps: PairMaps | None, t: np.ndarray) -> tuple[float, np.ndarray]:
    """collision_loss_total and the (n, 3) translation gradients of
    collision_gradient, for the scene of `maps` = pair_maps(scene) with its
    translations replaced by the rows of t.

    One sample_grids call samples the rows of every pair in its target's
    field, each shifted by its pair's offset b of relative_transform. The
    stack is target-major over one point count P, so each target's rows are
    contiguous and row r is in stack pair r // P. Only the rows with a
    non-zero gradient enter the gradient's sums. Both
    results are bit-identical to those functions:
    - every row is the same y = A x + b with the same per-point arithmetic;
      each target's offsets come from one (n - 1, 3) @ (3, 3) product, as
      relative_transform's R_j^T (t_i - t_j) rows;
    - each pair's depth is NumPy's pairwise sum of its whole segment, zeros
      included, and each object's energy adds its pairs' depths in j order;
    - a row's gradient has collision_gradient's bits, as the rows of a
      (., 3) @ (3, 3) product do not depend on the other rows; each pair's
      gradient adds its rows in point order from +0, on which the skipped
      rows of exact zeros would change nothing;
    - the pairs with a non-zero row add their gradient to grad[i] and
      subtract it from grad[j] in (i, j) order.
    """
    if maps is None:
        return 0.0, np.zeros(np.shape(t))
    n = len(maps.rotations)
    # Pair p of the (i, j) order is (i[p], j[p]), and pair at[p] of the
    # stack; stack pair p is (j[p], i[p]), as the stack is target-major.
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    at = j * (n - 1) + i - (i > j)
    count = maps.points.shape[1] // len(at)  # points per object
    offsets = ((t[j.reshape(n, n - 1)] - t[:, None]) @ maps.rotations) / maps.scales[:, None]
    # Each row's grid coordinates ((A x + b) - origin) / spacing, formed in
    # place: fewer large temporaries keep the allocator from returning pages.
    u = np.repeat(offsets.reshape(-1, 3).T, count, axis=1)
    u += maps.points
    u -= maps.origin[:, None]
    u /= maps.spacing
    inside, vals_in, field = sample_grids(maps.fields, maps.spacing, maps.row_target, u)
    vals = np.zeros(u.shape[1])
    vals[inside] = vals_in

    total, rho_prime = 0.0, np.empty(n)
    depths = vals.reshape(len(at), count).sum(axis=1)[at].reshape(n, n - 1)
    for source, row in enumerate(depths.tolist()):
        energy = 0.0
        for depth in row:
            energy += depth
        total += geman_mcclure(energy)
        rho_prime[source] = geman_mcclure_deriv(energy)

    pair = inside // count  # each in-grid row's stack pair
    g = rho_prime[j[pair], None] * field
    # Carry the rows with a non-zero entry (a sum of magnitudes is 0 only if
    # every entry is): still grouped by target, each pair's rows in point order.
    rows = np.flatnonzero(np.abs(g) @ np.ones(3))
    pair = pair[rows]
    g = np.take(g, rows, axis=0) / maps.scales[i[pair]]
    rts = np.ascontiguousarray(maps.rotations.swapaxes(1, 2))  # as collision_gradient's
    lo = 0
    for rt, size in zip(rts, np.bincount(i[pair], minlength=n).tolist()):
        g[lo:lo + size] = g[lo:lo + size] @ rt
        lo += size
    hit = np.bincount(pair, minlength=len(at))[at] > 0
    dt = _sum_rows(pair, g, len(at))[at][hit]
    # grad[i] += dt, then grad[j] -= dt, for each pair hit in (i, j) order.
    ends = np.stack([i[hit], j[hit]], axis=1).ravel()
    grad = _sum_rows(ends, np.stack([dt, -dt], axis=1).reshape(-1, 3), n)
    return total, grad.reshape(np.shape(t))


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
