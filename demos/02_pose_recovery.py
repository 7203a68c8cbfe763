"""Recover 9-DoF object poses by gradient descent through SVD projection.

Generates a synthetic scene, perturbs the ground-truth poses, and runs the
Adam-based fitter. Rotations are parameterized as raw 3x3 matrices and
projected onto SO(3) every step; gradients flow through the projection via
the closed-form singular-value Jacobian.
"""
import numpy as np

from shapescene import build_database, fit_poses, generate_scene
from shapescene.geom import apply_pose, geodesic_distance
from shapescene.optim import OptimConfig
from shapescene.scene import PlacedObject, Scene, perturb_pose, shape_entry
from shapescene.toys import toy_shape_set

shapes = [(0 if cls == "box" else 1, mesh) for cls, mesh in toy_shape_set()]
db = build_database(shapes, k_per_class=5, seed=42, classes=["box", "cylinder"])

# ---------------------------------------------------------------------------
# A ground-truth scene and a perturbed initialization (10 deg / 0.1 / 10%).
# ---------------------------------------------------------------------------
gt = generate_scene(db, 2, seed=7)
init = Scene(gt.seed, tuple(
    PlacedObject(o.class_name, o.exemplar,
                 perturb_pose(o.pose, 10.0, 0.1, 0.1, seed=100 + k))
    for k, o in enumerate(gt.objects)
))
targets = [apply_pose(o.pose, shape_entry(db, o).points) for o in gt.objects]

for k, (g, p) in enumerate(zip(gt.objects, init.objects)):
    rot = np.rad2deg(geodesic_distance(g.pose.r, p.pose.r))
    trans = np.linalg.norm(g.pose.t - p.pose.t)
    print(f"object {k}: initial error {rot:.1f} deg rotation, "
          f"{trans:.3f} translation")

# ---------------------------------------------------------------------------
# Fit. The trace records the best objective seen so far per iteration.
# ---------------------------------------------------------------------------
recovered, trace = fit_poses(db, init, targets,
                             OptimConfig(lr=1e-2, iterations=500))
print(f"\noptimized {len(trace)} iterations, "
      f"objective {trace[0]:.4g} -> {trace[-1]:.4g}")

for k, (g, r) in enumerate(zip(gt.objects, recovered.objects)):
    rot = geodesic_distance(g.pose.r, r.pose.r)
    trans = np.linalg.norm(g.pose.t - r.pose.t)
    scale = np.max(np.abs(g.pose.s - r.pose.s))
    print(f"object {k}: residual rot {rot:.2e} rad, trans {trans:.2e}, "
          f"scale {scale:.2e}")
    assert rot < 1e-3 and trans < 1e-3 and scale < 1e-3
print("\nall poses recovered to < 1e-3")
