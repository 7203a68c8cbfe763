"""Exemplar shape database: k-means++ clustering over flattened SDF grids,
nearest-exemplar assignment, and hard/soft selection labels.

Soft labels use RMS-normalized SDF vectors (division by sqrt(voxel count)) so
the clamped similarity 1 - ||phi_i - phi_k|| is non-trivial; the constant is
recorded in the on-disk manifest so labels are reproducible.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InsufficientShapes, UnknownClass, UnknownExemplar
from .mesh import TriMesh, canonicalize_mesh, load_obj, sample_surface_points, save_obj
from .sdf import SdfGrid, mesh_to_sdf, read_sdfg, write_sdfg

DB_VERSION = 1
DEFAULT_K_PER_CLASS = 50
DEFAULT_SDF_RESOLUTION = 32
DEFAULT_POINTS_PER_ENTRY = 512


@dataclass(frozen=True)
class ShapeEntry:
    class_id: int
    exemplar_index: int
    sdf: SdfGrid
    points: np.ndarray  # (n, 3) canonical-frame surface samples
    mesh: TriMesh


@dataclass
class ShapeDatabase:
    entries: list[ShapeEntry]
    k_per_class: int
    classes: list[str]
    normalization: float  # divisor applied to flattened SDFs in soft labels

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def total(self) -> int:
        return len(self.entries)

    def entry(self, class_id: int, exemplar_index: int) -> ShapeEntry:
        return self.entries[self.global_index(class_id, exemplar_index)]

    def class_entries(self, class_id: int) -> list[ShapeEntry]:
        if not 0 <= class_id < self.class_count:
            raise UnknownClass(f"class id {class_id}")
        lo = class_id * self.k_per_class
        return self.entries[lo:lo + self.k_per_class]

    def global_index(self, class_id: int, exemplar_index: int) -> int:
        if not 0 <= class_id < self.class_count:
            raise UnknownClass(f"class id {class_id}")
        if not 0 <= exemplar_index < self.k_per_class:
            raise UnknownExemplar(
                f"exemplar {exemplar_index} of class {self.classes[class_id]!r} "
                f"(database has {self.k_per_class} per class)"
            )
        return class_id * self.k_per_class + exemplar_index


def _flatten(sdf: SdfGrid) -> np.ndarray:
    return sdf.values.reshape(-1)


def kmeans_pp(
    data: np.ndarray, k: int, rng: np.random.Generator, max_iter: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Standard k-means++ seeding followed by Lloyd iterations to a fixpoint.

    Returns (centroids (k, d), assignments (n,)). Empty clusters are re-seeded
    from the point farthest from its assigned centroid.
    """
    n = len(data)
    # D^2 seeding.
    centers = [data[rng.integers(n)]]
    d2 = np.sum((data - centers[0]) ** 2, axis=1)
    for _ in range(k - 1):
        total = d2.sum()
        if total <= 0:
            idx = rng.integers(n)
        else:
            idx = int(np.searchsorted(np.cumsum(d2 / total), rng.random()))
            idx = min(idx, n - 1)
        centers.append(data[idx])
        d2 = np.minimum(d2, np.sum((data - centers[-1]) ** 2, axis=1))
    centroids = np.array(centers)

    assign = np.full(n, -1)
    for _ in range(max_iter):
        dists = np.sum((data[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(dists, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = data[assign == c]
            if len(members) == 0:
                far = int(np.argmax(dists[np.arange(n), assign]))
                centroids[c] = data[far]
                assign[far] = c
            else:
                centroids[c] = members.mean(axis=0)
    return centroids, assign


def build_database(
    shapes: list[tuple[int, TriMesh]],
    k_per_class: int,
    seed: int,
    classes: list[str] | None = None,
    resolution: int = DEFAULT_SDF_RESOLUTION,
    points_per_entry: int = DEFAULT_POINTS_PER_ENTRY,
    canonicalize: bool = True,
) -> ShapeDatabase:
    """Cluster per-class SDFs with k-means++ and keep the member closest to
    each cluster centroid as that cluster's exemplar. Deterministic per seed."""
    class_ids = sorted({cid for cid, _ in shapes})
    if classes is None:
        classes = [f"class{cid}" for cid in class_ids]
    if class_ids != list(range(len(classes))):
        raise UnknownClass(f"class ids must be 0..{len(classes) - 1}, got {class_ids}")

    entries: list[ShapeEntry] = []
    normalization = 0.0
    for cid in class_ids:
        meshes = [m for c, m in shapes if c == cid]
        if len(meshes) < k_per_class:
            raise InsufficientShapes(
                f"class {classes[cid]} has {len(meshes)} shapes, needs {k_per_class}"
            )
        if canonicalize:
            meshes = [canonicalize_mesh(m) for m in meshes]
        sdfs = [mesh_to_sdf(m, resolution) for m in meshes]
        data = np.stack([_flatten(s) for s in sdfs])
        normalization = float(np.sqrt(data.shape[1]))

        rng = np.random.default_rng(seed + cid)
        centroids, assign = kmeans_pp(data, k_per_class, rng)
        for k in range(k_per_class):
            members = np.flatnonzero(assign == k)
            if len(members) == 0:
                # Exact-duplicate inputs can leave a cluster empty; fall back
                # to the member nearest the centroid over the whole class.
                members = np.arange(len(data))
            dists = np.linalg.norm(data[members] - centroids[k], axis=1)
            best = int(members[np.argmin(dists)])
            entries.append(
                ShapeEntry(
                    class_id=cid,
                    exemplar_index=k,
                    sdf=sdfs[best],
                    points=sample_surface_points(
                        meshes[best], points_per_entry, seed + 1000 * cid + k
                    ),
                    mesh=meshes[best],
                )
            )
    return ShapeDatabase(entries, k_per_class, list(classes), normalization)


def assign_exemplar(db: ShapeDatabase, phi: SdfGrid, class_id: int) -> int:
    """Index of the class exemplar with smallest L2 SDF distance to phi.

    Ties break toward the lowest index.
    """
    flat = _flatten(phi)
    dists = [np.linalg.norm(flat - _flatten(e.sdf)) for e in db.class_entries(class_id)]
    return int(np.argmin(dists))


def hard_label(db: ShapeDatabase, phi: SdfGrid, class_id: int) -> np.ndarray:
    """One-hot K-vector at the assigned exemplar's global index."""
    label = np.zeros(db.total)
    label[db.global_index(class_id, assign_exemplar(db, phi, class_id))] = 1.0
    return label


def soft_label(db: ShapeDatabase, phi: SdfGrid) -> np.ndarray:
    """Clamped SDF similarity max(1 - ||phi - phi_k||, 0) over all K entries,
    computed on RMS-normalized flattened vectors."""
    flat = _flatten(phi) / db.normalization
    out = np.empty(db.total)
    for idx, e in enumerate(db.entries):
        d = np.linalg.norm(flat - _flatten(e.sdf) / db.normalization)
        out[idx] = max(1.0 - d, 0.0)
    return out


def save_database(db: ShapeDatabase, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": DB_VERSION,
        "k_per_class": db.k_per_class,
        "classes": db.classes,
        "normalization": db.normalization,
    }
    for e in db.entries:
        stem = f"{db.classes[e.class_id]}_{e.exemplar_index:04d}"
        write_sdfg(directory / f"{stem}.sdfg", e.sdf)
        _write_points(directory / f"{stem}.pts", e.points)
        save_obj(directory / f"{stem}.obj", e.mesh)
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_database(directory) -> ShapeDatabase:
    directory = Path(directory)
    with open(directory / "manifest.json") as fh:
        manifest = json.load(fh)
    entries = []
    for cid, cls in enumerate(manifest["classes"]):
        for k in range(manifest["k_per_class"]):
            stem = f"{cls}_{k:04d}"
            entries.append(
                ShapeEntry(
                    class_id=cid,
                    exemplar_index=k,
                    sdf=read_sdfg(directory / f"{stem}.sdfg"),
                    points=_read_points(directory / f"{stem}.pts"),
                    mesh=load_obj(directory / f"{stem}.obj"),
                )
            )
    return ShapeDatabase(
        entries,
        manifest["k_per_class"],
        list(manifest["classes"]),
        float(manifest["normalization"]),
    )


def _write_points(path, points: np.ndarray) -> None:
    # Count-prefixed little-endian float32 triples.
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(points)))
        fh.write(np.asarray(points, dtype="<f4").tobytes())


def _read_points(path) -> np.ndarray:
    with open(path, "rb") as fh:
        count, = struct.unpack("<I", fh.read(4))
        data = np.frombuffer(fh.read(count * 12), dtype="<f4")
    return data.reshape(count, 3).astype(np.float64)
