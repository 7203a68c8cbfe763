"""Build a shape-exemplar database from parametric toy meshes.

Walks through the full database pipeline: canonicalize meshes to the unit
cube, rasterize each to a 32^3 signed-distance grid, cluster the per-class
SDF vectors with seeded k-means++, and inspect the resulting hard / soft
selection labels.
"""
import numpy as np

from shapescene import build_database, generate_scene  # noqa: F401
from shapescene.shapedb import hard_label, soft_label
from shapescene.toys import toy_shape_set

# ---------------------------------------------------------------------------
# The bundled toy set: 6 boxes and 6 cylinders with varying proportions.
# ---------------------------------------------------------------------------
shapes = [(0 if cls == "box" else 1, mesh) for cls, mesh in toy_shape_set()]
print(f"toy set: {len(shapes)} meshes, "
      f"{sum(1 for c, _ in shapes if c == 0)} boxes / "
      f"{sum(1 for c, _ in shapes if c == 1)} cylinders")

db = build_database(shapes, k_per_class=3, seed=42, classes=["box", "cylinder"])
print(f"database: {db.class_count} classes x {db.k_per_class} exemplars, "
      f"SDF grids {db.entry(0, 0).sdf.values.shape}, "
      f"{len(db.entry(0, 0).points)} surface samples per exemplar")

# ---------------------------------------------------------------------------
# Every exemplar mesh is canonicalized: each axis is scaled on its own so
# that every bounding-box edge spans 1.
# ---------------------------------------------------------------------------
for cid, cls in enumerate(db.classes):
    for e in range(db.k_per_class):
        v = db.entry(cid, e).mesh.vertices
        extent = v.max(axis=0) - v.min(axis=0)
        assert np.all(np.abs(extent - 1.0) < 1e-9)
print("all exemplars canonicalized to the unit cube")

# ---------------------------------------------------------------------------
# Selection labels for a held-in shape: the hard label is a one-hot over all
# class exemplars; the soft label scores SDF similarity in [0, 1], peaking
# at the assigned exemplar.
# ---------------------------------------------------------------------------
probe = db.entry(0, 1).sdf
hard = hard_label(db, probe, class_id=0)
soft = soft_label(db, probe)
print("hard label:", np.array2string(hard, precision=2))
print("soft label:", np.array2string(soft, precision=3))
assert np.argmax(hard) == np.argmax(soft)
print("hard and soft argmax agree ->", int(np.argmax(soft)))
