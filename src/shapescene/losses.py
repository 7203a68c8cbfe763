"""Per-object supervision terms: shape selection (hard/soft), pose and scale.

Gradients are provided analytically where the optimizer or the gradient test
suite needs them.
"""
from __future__ import annotations

import numpy as np

from .errors import MismatchedLengths
from .geom import Pose9DoF, apply_pose, apply_pose_backward


def _log_softmax(z: np.ndarray) -> np.ndarray:
    zmax = z.max()
    return z - zmax - np.log(np.exp(z - zmax).sum())


def _softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(z))


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return np.exp(_log_sigmoid(z))


def hard_selection_loss(scores: list[np.ndarray], targets: list[np.ndarray]) -> float:
    """Mean softmax cross-entropy against one-hot exemplar targets."""
    if len(scores) != len(targets):
        raise MismatchedLengths("scores and targets differ in length")
    total = 0.0
    for z, t in zip(scores, targets):
        total -= float(t @ _log_softmax(np.asarray(z, dtype=np.float64)))
    return total / len(scores)


def hard_selection_grad(scores: list[np.ndarray], targets: list[np.ndarray]) -> list[np.ndarray]:
    m = len(scores)
    return [(_softmax(np.asarray(z, dtype=np.float64)) - t) / m for z, t in zip(scores, targets)]


def soft_selection_loss(
    scores: list[np.ndarray],
    soft_targets: list[np.ndarray],
    mode: str = "symmetric",
) -> float:
    """Sigmoid-based selection loss with geometric-similarity targets d in [0,1].

    mode="literal" sums only -d * log S(z); mode="symmetric" (default) adds the
    complementary -(1-d) * log(1 - S(z)) term so dissimilar shapes are also
    pushed down.
    """
    if mode not in ("literal", "symmetric"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(scores) != len(soft_targets):
        raise MismatchedLengths("scores and targets differ in length")
    total = 0.0
    for z, d in zip(scores, soft_targets):
        z = np.asarray(z, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        total -= float(d @ _log_sigmoid(z))
        if mode == "symmetric":
            total -= float((1.0 - d) @ _log_sigmoid(-z))
    return total / len(scores)


def soft_selection_grad(
    scores: list[np.ndarray],
    soft_targets: list[np.ndarray],
    mode: str = "symmetric",
) -> list[np.ndarray]:
    m = len(scores)
    grads = []
    for z, d in zip(scores, soft_targets):
        s = _sigmoid(np.asarray(z, dtype=np.float64))
        if mode == "symmetric":
            grads.append((s - d) / m)
        else:
            grads.append(-d * (1.0 - s) / m)
    return grads


def pose_loss_rt(
    poses_gt: list[Pose9DoF],
    poses_pred: list[Pose9DoF],
    clouds: list[np.ndarray],
) -> float:
    """Summed squared distance between point clouds under GT and predicted poses.

    As defined there is no 1/M or per-point normalization.
    """
    if not len(poses_gt) == len(poses_pred) == len(clouds):
        raise MismatchedLengths("pose/cloud lists differ in length")
    total = 0.0
    for gt, pred, pts in zip(poses_gt, poses_pred, clouds):
        diff = apply_pose(pred, pts) - apply_pose(gt, pts)
        total += float(np.sum(diff**2))
    return total


def pose_loss_world_grads(
    rs: list[np.ndarray],
    ts: list[np.ndarray],
    ss: list[np.ndarray],
    clouds: list[np.ndarray],
    targets: list[np.ndarray],
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """pose_loss_rt against world-frame targets (apply_pose(gt, cloud) for a
    ground-truth pose gt), and its gradients w.r.t. each object's rotation
    matrix entries, translation and scale, stacked as (n, 3, 3), (n, 3) and
    (n, 3) arrays. A caller that optimises unconstrained matrices pulls the
    rotation gradient back through the SO(3) projection itself.

    One stacked computation over rs (n, 3, 3), ts and ss (n, 3), clouds and
    targets (n, P, 3); float64 arrays of those shapes are used without a copy.
    Builds no Pose9DoF, so a non-positive scale (an optimizer iterate) is
    accepted.

    Each pass runs over whole (n, P, 3) blocks, not 3-wide broadcast rows,
    with the bits of s * x @ R^T + t - y:
    - sx is the stacked product x @ diag(s), each entry one rounding of
      x s plus exact zeros. Where s * x is -0.0 (a zero coordinate times a
      negative scale, or a negative one times a zero scale), sx may be +0.0.
      That sign stays in sx, which is not returned, and reaches no
      returned value: sx enters only as a matmul operand (the forward
      product with R^T and the backward g^T sx), and NumPy's matmul adds
      every product to a +0.0 accumulator, so a zero term of either sign
      leaves each sum as it was. For a non-finite cloud coordinate, inf
      times 0 makes the whole row of sx NaN; the loss is not finite either
      way.
    - t is added from np.repeat(t, P) rows, then y subtracted, both in place
      on the forward product: the same two roundings per entry."""
    if not len(rs) == len(ts) == len(ss) == len(clouds) == len(targets):
        raise MismatchedLengths("per-object lists differ in length")
    if len(rs) == 0:
        return 0.0, (np.zeros((0, 3, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
    try:  # lists of clouds with different point counts form no stack
        pts, y = np.asarray(clouds, dtype=np.float64), np.asarray(targets, dtype=np.float64)
        if pts.shape != y.shape:
            raise ValueError
    except ValueError:
        raise MismatchedLengths("the clouds and targets must share one point count") from None
    s, t = np.asarray(ss, dtype=np.float64), np.asarray(ts, dtype=np.float64)
    r = np.asarray(rs, dtype=np.float64)
    n, p = pts.shape[:2]
    scale = np.zeros((n, 9))
    scale[:, ::4] = s
    sx = pts @ scale.reshape(n, 3, 3)
    # A C-ordered right operand takes matmul's fast path, with the same bits.
    diff = sx @ np.ascontiguousarray(r.swapaxes(1, 2))
    diff += np.repeat(t, p, axis=0).reshape(n, p, 3)
    diff -= y
    total = float(np.cumsum((diff**2).sum(axis=(1, 2)))[-1])  # objects added in order
    return total, apply_pose_backward(r, sx, pts, 2.0 * diff)


def scale_loss(s_gt: list[np.ndarray], s_pred: list[np.ndarray]) -> float:
    """L1 distance between scales, summed over axes, averaged over objects."""
    if len(s_gt) != len(s_pred):
        raise MismatchedLengths("scale lists differ in length")
    total = sum(float(np.abs(np.asarray(a) - np.asarray(b)).sum())
                for a, b in zip(s_gt, s_pred))
    return total / len(s_gt)


def scale_loss_grad(s_gt: list[np.ndarray], s_pred: list[np.ndarray]) -> list[np.ndarray]:
    m = len(s_gt)
    return [np.sign(np.asarray(b, dtype=np.float64) - np.asarray(a)) / m
            for a, b in zip(s_gt, s_pred)]
