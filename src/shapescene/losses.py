"""Per-object supervision terms: shape selection (hard/soft), pose, scale,
the binned-rotation baseline, and the weighted multi-task total.

Gradients are provided analytically where the optimizer or the gradient test
suite needs them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MismatchedLengths
from .geom import Pose9DoF, Rotation, apply_pose, chain_rotation_grad, project_to_so3


@dataclass(frozen=True)
class LossWeights:
    """Multi-task weighting coefficients (rt, scale, selection, collision)."""

    rt: float = 10.0
    s: float = 10.0
    z: float = 0.1
    coll: float = 1.0

    def __post_init__(self):
        if min(self.rt, self.s, self.z, self.coll) < 0:
            raise ValueError("loss weights must be non-negative")


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
    normalized: bool = False,
) -> float:
    """Summed squared distance between point clouds under GT and predicted poses.

    As defined there is no 1/M or per-point normalization; pass normalized=True
    to average over objects and points instead.
    """
    if not len(poses_gt) == len(poses_pred) == len(clouds):
        raise MismatchedLengths("pose/cloud lists differ in length")
    total = 0.0
    for gt, pred, pts in zip(poses_gt, poses_pred, clouds):
        diff = apply_pose(pred, pts) - apply_pose(gt, pts)
        term = float(np.sum(diff**2))
        if normalized:
            term /= len(pts)
        total += term
    return total / len(poses_gt) if normalized else total


def pose_loss_rt_grads(
    poses_gt: list[Pose9DoF],
    raw_ms: list[np.ndarray],
    ts: list[np.ndarray],
    ss: list[np.ndarray],
    clouds: list[np.ndarray],
) -> tuple[float, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Loss value and per-object gradients w.r.t. the unconstrained rotation
    matrix (through the SO(3) projection), translation, and scale."""
    if len(poses_gt) != len(clouds):
        raise MismatchedLengths("per-object lists differ in length")
    targets = [apply_pose(gt, pts) for gt, pts in zip(poses_gt, clouds)]
    return pose_loss_world_grads(raw_ms, ts, ss, clouds, targets)


def pose_loss_world_grads(
    raw_ms: list[np.ndarray],
    ts: list[np.ndarray],
    ss: list[np.ndarray],
    clouds: list[np.ndarray],
    targets: list[np.ndarray],
) -> tuple[float, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """pose_loss_rt_grads against world-frame target clouds instead of
    ground-truth poses. Builds no Pose9DoF, so a scale with non-positive
    components (an optimizer iterate) is accepted."""
    if not len(raw_ms) == len(ts) == len(ss) == len(clouds) == len(targets):
        raise MismatchedLengths("per-object lists differ in length")
    total = 0.0
    grads = []
    for m, t, s, pts, y in zip(raw_ms, ts, ss, clouds, targets):
        r = project_to_so3(m).m
        diff = (s * pts) @ r.T + t - y
        total += float(np.sum(diff**2))
        g_pts = 2.0 * diff                        # dL/d(world point)
        grad_t = g_pts.sum(axis=0)
        grad_r = g_pts.T @ (s * pts)              # outer products summed
        grad_s = ((g_pts @ r) * pts).sum(axis=0)
        grads.append((chain_rotation_grad(m, grad_r), grad_t, grad_s))
    return total, grads


def rot_loss_frobenius(r_gt: Rotation, r_pred: Rotation) -> float:
    return float(np.linalg.norm(r_gt.m - r_pred.m))


def trans_loss_huber(t_gt: np.ndarray, t_pred: np.ndarray, delta: float = 1.0) -> float:
    """Per-component smooth-L1 with threshold delta, summed over the 3 axes."""
    e = np.abs(np.asarray(t_gt, dtype=np.float64) - np.asarray(t_pred, dtype=np.float64))
    quad = 0.5 * e**2
    lin = delta * (e - 0.5 * delta)
    return float(np.where(e <= delta, quad, lin).sum())


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


def binned_rotation_loss(
    yaw_gt: float,
    bin_logits: np.ndarray,
    offset_preds: np.ndarray,
    delta: float = 1.0,
) -> float:
    """Quantized-yaw baseline: bin classification plus in-bin offset regression.

    Bins partition [0, 2pi) evenly; the offset target is the signed residual
    from the ground-truth bin's center.
    """
    bin_logits = np.asarray(bin_logits, dtype=np.float64)
    offset_preds = np.asarray(offset_preds, dtype=np.float64)
    b = len(bin_logits)
    if b < 2 or len(offset_preds) != b:
        raise ValueError("need >= 2 bins and matching offset predictions")
    width = 2.0 * np.pi / b
    yaw = float(yaw_gt) % (2.0 * np.pi)
    gt_bin = min(int(yaw // width), b - 1)
    center = (gt_bin + 0.5) * width
    ce = -float(_log_softmax(bin_logits)[gt_bin])
    e = abs(offset_preds[gt_bin] - (yaw - center))
    huber = 0.5 * e**2 if e <= delta else delta * (e - 0.5 * delta)
    return ce + float(huber)


def total_objective(
    key: float,
    rt: float,
    s: float,
    z: float,
    coll: float,
    weights: LossWeights = LossWeights(),
    iteration: int = 0,
    warmup: int = 100,
) -> float:
    """Weighted multi-task total; the collision weight is zero during warm-up."""
    coll_w = 0.0 if iteration < warmup else weights.coll
    return key + weights.rt * rt + weights.s * s + weights.z * z + coll_w * coll
