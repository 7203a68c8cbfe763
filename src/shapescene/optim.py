"""First-order pose optimization: point-cloud pose recovery and collision
resolution, both descended by one Adam loop (Kingma & Ba, ICLR 2015) with
bias correction and a step size cosine-annealed to zero over the budget.

Rotations are optimized in the unconstrained 9-parameter space; the loss sees
the SO(3) projection and returns its gradient w.r.t. the rotation, which
fit_poses pulls back through the differential of the polar decomposition,
from the rotation it has just projected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collision import SceneObject, pair_maps, translation_step
from .errors import MismatchedLengths, NonFinite, ShapeSceneError
from .geom import Pose9DoF, Rotation, chain_rotation_grad, project_to_so3
from .losses import pose_loss_world_grads
from .scene import PlacedObject, Scene, shape_entry
from .sdf import clamp_interior
from .shapedb import ShapeDatabase

# Adam's moment decay rates and the guard added to its denominator.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
# A fit converges when its objective falls below this, a resolve when its
# collision loss reaches it.
TOL = 1e-12
# Columns of one object's row in the fit parameters: the raw matrix that
# projects to R, then t and s, in the order of pose_loss_world_grads' gradients.
_BLOCKS = {"rot": slice(0, 9), "trans": slice(9, 12), "scale": slice(12, 15)}


@dataclass(frozen=True)
class OptimConfig:
    lr: float = 1e-2
    iterations: int = 500

    def __post_init__(self):
        if not 0 < self.lr < np.inf or self.iterations <= 0:
            raise ValueError("step size must be finite and positive, iteration budget positive")


def _descend(params: np.ndarray, cfg: OptimConfig, evaluate) -> np.ndarray:
    """Adam from `params`; returns the parameters with the lowest objective.

    `evaluate(params)` returns (objective, gradient, converged). The loop
    stops after the first converged evaluation or after cfg.iterations steps,
    and raises NonFinite on a non-finite iterate or objective. Each step makes
    a new array, so kept parameters are never written to.

    Floating-point overflow inside the loop raises no NumPy warning: a
    non-finite iterate or objective is reported by NonFinite alone.
    """
    m = v = np.zeros_like(params)  # rebound, never written in place
    best_obj, best = np.inf, params
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(cfg.iterations + 1):
            if not np.all(np.isfinite(params)):
                raise NonFinite(f"parameters became non-finite at iteration {it}")
            obj, grad, converged = evaluate(params)
            if not np.isfinite(obj):
                raise NonFinite(f"objective became non-finite at iteration {it}")
            if obj < best_obj:
                best_obj, best = obj, params
            if converged or it == cfg.iterations:
                return best
            m = _BETA1 * m + (1.0 - _BETA1) * grad
            v = _BETA2 * v + (1.0 - _BETA2) * grad**2
            mhat = m / (1.0 - _BETA1**(it + 1))
            vhat = v / (1.0 - _BETA2**(it + 1))
            lr_scale = 0.5 * (1.0 + np.cos(np.pi * it / cfg.iterations))
            params = params - cfg.lr * lr_scale * mhat / (np.sqrt(vhat) + _EPS)


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
    best objective so far (non-increasing by construction). Negative scales
    are written as their magnitudes with the signs in the rotation's columns;
    ShapeSceneError if they make a reflection.
    """
    clouds = np.array([shape_entry(db, o).points for o in scene_init.objects])
    if [np.shape(y) for y in targets] != [x.shape for x in clouds]:
        raise MismatchedLengths("one target cloud per object required, of its point count")
    if not freeze <= _BLOCKS.keys():
        raise ValueError(f"unknown freeze blocks {sorted(freeze)}")
    if not scene_init.objects:
        return scene_init, [0.0]
    targets = np.asarray(targets, dtype=np.float64)  # one stack, not one per evaluation
    frozen = [_BLOCKS[block] for block in sorted(freeze)]
    trace: list[float] = []

    def evaluate(params):
        raw = params[:, :9].reshape(-1, 3, 3)
        rot = project_to_so3(raw)
        obj, (g_r, g_t, g_s) = pose_loss_world_grads(
            rot, params[:, 9:12], params[:, 12:], clouds, targets)
        # Report the best objective so far; raw Adam iterates are not monotone.
        trace.append(min(trace[-1], obj) if trace else obj)
        grad = np.concatenate(
            [chain_rotation_grad(rot, raw, g_r).reshape(len(params), 9), g_t, g_s], axis=1)
        for cols in frozen:
            grad[:, cols] = 0.0
        return obj, grad, obj < TOL

    init = np.array([np.concatenate([o.pose.r.m.reshape(-1), o.pose.t, o.pose.s])
                     for o in scene_init.objects])
    best = _descend(init, cfg, evaluate)
    # R diag(sign s) with |s| is the transform R with s, bit for bit. A zero or
    # an odd count of negative scales makes a reflection, which no pose holds.
    signs = np.sign(best[:, 12:])
    reflected = np.prod(signs, axis=1) != 1.0
    if reflected.any():
        raise ShapeSceneError(f"the fit of object {np.argmax(reflected)} ended on a reflection")
    rotations = project_to_so3(best[:, :9].reshape(-1, 3, 3)) * signs[:, None, :]
    objects = [
        PlacedObject(o.class_name, o.exemplar, Pose9DoF(Rotation(r), p[9:12], np.abs(p[12:])))
        for o, r, p in zip(scene_init.objects, rotations, best)
    ]
    return Scene(scene_init.seed, tuple(objects)), trace


def scene_to_objects(db: ShapeDatabase, scene: Scene) -> list[SceneObject]:
    """Materialize collision-ready objects (clamped SDF + points) for a scene."""
    objs = []
    for o in scene.objects:
        entry = shape_entry(db, o)
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
) -> tuple[Scene, list[tuple[float, float, float]]]:
    """Push interpenetrating objects apart by descending the collision loss
    over translations, with a quadratic anchor to the initial positions.
    Each step is one collision.translation_step on the pair maps formed once
    here, which need the database's one field layout and point count.

    Returns the scene with the lowest seen objective and a per-iteration trace
    of (collision loss, anchor term, total objective)."""
    objs = scene_to_objects(db, scene)
    t0 = np.array([o.pose.t for o in objs])
    maps = pair_maps(objs)  # rotations and scales stay fixed
    trace: list[tuple[float, float, float]] = []

    def evaluate(params):
        coll, grad = translation_step(maps, params)
        delta = params - t0
        anchor = 0.0
        for d in delta:
            anchor += anchor_term_weight * float(d @ d)
        grad = grad + 2.0 * anchor_term_weight * delta
        obj = coll + anchor
        trace.append((coll, anchor, obj))
        return obj, grad, coll <= TOL

    best = _descend(t0, cfg, evaluate)
    objects = [
        PlacedObject(o.class_name, o.exemplar, Pose9DoF(o.pose.r, t, o.pose.s))
        for o, t in zip(scene.objects, best)
    ]
    return Scene(scene.seed, tuple(objects)), trace
