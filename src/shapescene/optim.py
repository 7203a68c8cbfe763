"""First-order pose optimization: point-cloud pose recovery and collision
resolution with an adaptive-moment (Adam-style) update rule.

Rotations are optimized in the unconstrained 9-parameter space; the loss sees
the SO(3) projection, and gradients flow through the SVD differential.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collision import SceneObject, collision_gradient, collision_loss_total
from .errors import MismatchedLengths, NonFinite
from .geom import Pose9DoF, project_to_so3
from .losses import pose_loss_world_grads
from .scene import PlacedObject, Scene, class_id
from .sdf import clamp_interior
from .shapedb import ShapeDatabase


@dataclass(frozen=True)
class OptimConfig:
    lr: float = 1e-2
    iterations: int = 500
    warmup: int = 0               # iterations with the collision weight zeroed
    tol: float = 1e-12            # stop when the objective falls below this
    cosine_decay: bool = True     # anneal the step size to zero over the budget

    def __post_init__(self):
        if self.lr <= 0 or self.iterations <= 0:
            raise ValueError("step size and iteration budget must be positive")


class _Adam:
    """Adam with bias correction over a flat parameter vector."""

    def __init__(self, n: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray, lr_scale: float = 1.0) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad**2
        mhat = self.m / (1.0 - self.beta1**self.t)
        vhat = self.v / (1.0 - self.beta2**self.t)
        return params - self.lr * lr_scale * mhat / (np.sqrt(vhat) + self.eps)


def _lr_scale(cfg: OptimConfig, it: int) -> float:
    if not cfg.cosine_decay:
        return 1.0
    return 0.5 * (1.0 + np.cos(np.pi * it / cfg.iterations))


def _pack(ms, ts, ss):
    return np.concatenate([np.concatenate([m.reshape(-1), t, s])
                           for m, t, s in zip(ms, ts, ss)])


def _unpack(x, n):
    ms, ts, ss = [], [], []
    for i in range(n):
        chunk = x[15 * i:15 * (i + 1)]
        ms.append(chunk[:9].reshape(3, 3))
        ts.append(chunk[9:12])
        ss.append(chunk[12:15])
    return ms, ts, ss


def fit_poses(
    db: ShapeDatabase,
    scene_init: Scene,
    targets: list[np.ndarray],
    cfg: OptimConfig,
    freeze: frozenset[str] = frozenset(),
) -> tuple[Scene, list[float]]:
    """Recover per-object 9-DoF poses from world-frame target point clouds.

    Targets are the canonical database clouds transformed by the (unknown)
    ground-truth poses, in the same order as scene_init.objects. Parameter
    blocks named in `freeze` ("rot", "trans", "scale") stay at their initial
    values. Returns the best-seen scene and the per-iteration trace of the
    best objective so far (non-increasing by construction).
    """
    if len(targets) != len(scene_init.objects):
        raise MismatchedLengths("one target cloud per object required")
    if not freeze <= {"rot", "trans", "scale"}:
        raise ValueError(f"unknown freeze blocks {sorted(freeze)}")
    n = len(scene_init.objects)
    clouds = [db.entry(class_id(db, o.class_name), o.exemplar).points
              for o in scene_init.objects]
    ms = [o.pose.r.m.copy() for o in scene_init.objects]
    ts = [o.pose.t.copy() for o in scene_init.objects]
    ss = [o.pose.s.copy() for o in scene_init.objects]

    params = _pack(ms, ts, ss)
    adam = _Adam(len(params), cfg.lr)
    trace: list[float] = []
    best_obj = np.inf
    best_params = params.copy()
    for it in range(cfg.iterations + 1):
        ms, ts, ss = _unpack(params, n)
        obj, grads = pose_loss_world_grads(ms, ts, ss, clouds, targets)
        if not np.isfinite(obj):
            raise NonFinite(f"objective became non-finite at iteration {it}")
        if obj < best_obj:
            best_obj = obj
            best_params = params.copy()
        # Report the best objective so far; raw Adam iterates are not monotone.
        trace.append(best_obj)
        if obj < cfg.tol or it == cfg.iterations:
            break
        if freeze:
            grads = [
                (np.zeros((3, 3)) if "rot" in freeze else gm,
                 np.zeros(3) if "trans" in freeze else gt,
                 np.zeros(3) if "scale" in freeze else gs)
                for gm, gt, gs in grads
            ]
        grad = _pack(*zip(*grads))
        params = adam.step(params, grad, _lr_scale(cfg, it))

    ms, ts, ss = _unpack(best_params, n)
    objects = []
    for o, m, t, s in zip(scene_init.objects, ms, ts, ss):
        pose = Pose9DoF(project_to_so3(m), t, np.abs(s))
        objects.append(PlacedObject(o.class_name, o.exemplar, pose))
    return Scene(scene_init.seed, tuple(objects)), trace


def scene_to_objects(db: ShapeDatabase, scene: Scene) -> list[SceneObject]:
    """Materialize collision-ready objects (clamped SDF + points) for a scene."""
    objs = []
    for o in scene.objects:
        entry = db.entry(class_id(db, o.class_name), o.exemplar)
        objs.append(
            SceneObject(
                class_id=entry.class_id,
                exemplar_index=o.exemplar,
                pose=o.pose,
                clamped_sdf=clamp_interior(entry.sdf),
                points=entry.points,
            )
        )
    return objs


def resolve_collisions(
    db: ShapeDatabase,
    scene: Scene,
    cfg: OptimConfig,
    anchor_term_weight: float = 1.0,
    collision_weight: float = 1.0,
) -> tuple[Scene, list[tuple[float, float, float]]]:
    """Push interpenetrating objects apart by descending the collision loss
    over translations, with a quadratic anchor to the initial positions.

    The collision weight is forced to zero for the first cfg.warmup iterations.
    Returns the scene with the lowest seen objective and a per-iteration trace
    of (collision loss, anchor term, total objective)."""
    objs = scene_to_objects(db, scene)
    n = len(objs)
    t0 = [o.pose.t.copy() for o in objs]
    ts = [o.pose.t.copy() for o in objs]

    def objective_and_grad(ts, it):
        current = [o.with_pose(Pose9DoF(o.pose.r, t, o.pose.s))
                   for o, t in zip(objs, ts)]
        coll_w = 0.0 if it < cfg.warmup else collision_weight
        if coll_w > 0.0:
            coll, grads = collision_gradient(current)
            grad_t = [coll_w * g[1] for g in grads]
        else:
            coll = collision_loss_total(current)
            grad_t = [np.zeros(3) for _ in range(n)]
        anchor = 0.0
        for i in range(n):
            delta = ts[i] - t0[i]
            anchor += anchor_term_weight * float(delta @ delta)
            grad_t[i] = grad_t[i] + 2.0 * anchor_term_weight * delta
        return coll_w * coll + anchor, coll, anchor, grad_t

    params = np.concatenate(ts)
    adam = _Adam(len(params), cfg.lr)
    trace: list[tuple[float, float, float]] = []
    best_obj = np.inf
    best_params = params.copy()
    for it in range(cfg.iterations + 1):
        ts = [params[3 * i:3 * (i + 1)] for i in range(n)]
        obj, coll, anchor, grad_t = objective_and_grad(ts, it)
        if not np.isfinite(obj):
            raise NonFinite(f"objective became non-finite at iteration {it}")
        trace.append((coll, anchor, obj))
        if obj < best_obj:
            best_obj = obj
            best_params = params.copy()
        if coll <= cfg.tol and it >= cfg.warmup:
            break
        if it == cfg.iterations:
            break
        params = adam.step(params, np.concatenate(grad_t), _lr_scale(cfg, it))

    ts = [best_params[3 * i:3 * (i + 1)] for i in range(n)]
    objects = [
        PlacedObject(o.class_name, o.exemplar, Pose9DoF(o.pose.r, t, o.pose.s))
        for o, t in zip(scene.objects, ts)
    ]
    return Scene(scene.seed, tuple(objects)), trace
