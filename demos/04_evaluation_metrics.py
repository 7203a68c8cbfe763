"""Tour of the evaluation metrics: voxel IoU, relative IoU, oriented-box
mAP, and mean intersecting volume.

The relative IoU divides the absolute score by the "oracle" reconstruction
that keeps ground-truth poses but swaps in each object's nearest database
exemplar, isolating pose error from shape-approximation error.
"""
import numpy as np

from shapescene import build_database, generate_scene
from shapescene.geom import Pose9DoF
from shapescene.metrics import (
    DetectionBox,
    map3d,
    miv_and_collisions,
    oriented_box_iou,
    relative_iou,
)
from shapescene.scene import PlacedObject, Scene
from shapescene.toys import toy_shape_set

shapes = [(0 if cls == "box" else 1, mesh) for cls, mesh in toy_shape_set()]
db = build_database(shapes, k_per_class=3, seed=42, classes=["box", "cylinder"])

# ---------------------------------------------------------------------------
# Voxel IoU of a slightly shifted prediction against its ground truth.
# ---------------------------------------------------------------------------
gt = generate_scene(db, 2, seed=19)
pred = Scene(gt.seed, tuple(
    PlacedObject(o.class_name, o.exemplar,
                 Pose9DoF(o.pose.r, o.pose.t + np.array([0.05, 0.0, 0.0]),
                          o.pose.s))
    for o in gt.objects
))
rep = relative_iou(pred, gt, db, resolution=96)
print("per-class IoU:     ", {c: round(v, 3) for c, v in rep.per_class.items()})
print("relative per-class:", {c: round(v, 3) for c, v in rep.relative_per_class.items()})
print(f"global {rep.global_iou:.3f}, relative global {rep.relative_global:.3f}")

# ---------------------------------------------------------------------------
# Oriented-box IoU (exact) and mAP. Two unit cubes half overlapping along x
# have IoU 1/3; mAP matches predictions to ground truths greedily by score.
# ---------------------------------------------------------------------------
a = Pose9DoF.identity()
b = Pose9DoF(a.r, np.array([0.5, 0.0, 0.0]), np.ones(3))
half = oriented_box_iou(a, b)
print(f"\nhalf-overlap box IoU: {half:.4f} (analytic 1/3 = {1.0 / 3.0:.4f})")
assert abs(half - 1.0 / 3.0) < 1e-12

gts = [DetectionBox(o.class_name, o.pose) for o in gt.objects]
preds = [DetectionBox(o.class_name, o.pose, score=0.9) for o in pred.objects]
per_class, mean = map3d(preds, gts, iou_threshold=0.25)
print(f"mAP@0.25 of the shifted prediction: {mean:.3f} ({per_class})")

# ---------------------------------------------------------------------------
# Mean intersecting volume: generated scenes are collision free by
# construction (rejection sampling), so mIV is zero with zero collisions.
# ---------------------------------------------------------------------------
miv, count = miv_and_collisions(gt, db)
print(f"\nground-truth scene: mIV {miv:.4f}, {count} collisions")
assert (miv, count) == (0.0, 0)
