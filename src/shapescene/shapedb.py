"""Exemplar shape database: k-means++ clustering over flattened SDF grids,
nearest-exemplar assignment, and hard/soft selection labels.

One distance decides all of them: `_squared_distances`, a NumPy row sum of
squared differences. k-means compares its values; exemplar choice, nearest-
exemplar assignment and soft labels compare their roots. It runs no BLAS
call, so its bits do not depend on the BLAS thread count.

Soft labels divide that distance by the database's normalization (by default
sqrt(voxel count), which makes it an RMS one) so the clamped similarity
1 - ||phi_i - phi_k|| / normalization is non-trivial; the constant is recorded
in the on-disk manifest so labels are reproducible.
"""
from __future__ import annotations

import json
import os
import struct
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    DegenerateMesh,
    InsufficientShapes,
    MalformedFile,
    NonWatertight,
    UnknownClass,
    UnknownExemplar,
    of_type,
    parse_json,
    read_text,
)
from .mesh import TriMesh, canonicalize_mesh, load_obj, sample_surface_points, save_obj
from .sdf import SdfGrid, mesh_to_sdf, read_sdfg, write_sdfg
from .workers import fork_map

DB_VERSION = 1
DEFAULT_K_PER_CLASS = 50
DEFAULT_SDF_RESOLUTION = 32
DEFAULT_POINTS_PER_ENTRY = 512
KMEANS_MAX_ITER = 100  # Lloyd iterations before giving up on a fixpoint
# Elements of the row blocks in which kmeans_pp fills its distance table, so
# its temporaries stay small whatever the row count and length.
_BLOCK_ELEMENTS = 1 << 16


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


def kmeans_pp(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard k-means++ seeding followed by Lloyd iterations to a fixpoint
    (at most KMEANS_MAX_ITER of them).

    Returns (centroids (k, d) float64, assignments (n,), squared distances
    (n, k) from each row to each returned centroid). One table serves the
    whole run: the D^2 seeding fills column c as it picks centroid c, and
    each Lloyd step refills it once for its updated centroids. Empty
    clusters are re-seeded from the point farthest from its assigned centroid.

    The rows may be float32: every distance and mean is taken in float64,
    and a float32 widens to float64 exactly, so the result has the bits of
    the same rows as float64.
    """
    n = len(data)
    centroids, dists = np.empty((k, data.shape[1])), np.empty((n, k))
    # Columns are filled one centroid at a time, in blocks of rows, which keeps
    # the temporaries at `_BLOCK_ELEMENTS`; a row's sum is the same as over an
    # (n, k, d) broadcast, so ties break the same way.
    block = max(1, _BLOCK_ELEMENTS // max(data.shape[1], 1))
    for c in range(k):  # D^2 seeding; the first centroid, with all weights 0, is uniform
        d2 = dists[:, :c].min(axis=1) if c else np.zeros(n)
        total = d2.sum()
        if total <= 0:
            idx = rng.integers(n)
        else:
            idx = min(int(np.searchsorted(np.cumsum(d2 / total), rng.random())), n - 1)
        centroids[c] = data[idx]
        for s in range(0, n, block):
            dists[s:s + block, c] = _squared_distances(data[s:s + block], centroids[c])

    assign = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
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
                centroids[c] = members.mean(axis=0, dtype=np.float64)
        for c in range(k):
            for s in range(0, n, block):
                dists[s:s + block, c] = _squared_distances(data[s:s + block], centroids[c])
    return centroids, assign, dists


def build_database(
    shapes: list[tuple[int, TriMesh]],
    k_per_class: int,
    seed: int,
    classes: list[str] | None = None,
    resolution: int = DEFAULT_SDF_RESOLUTION,
    points_per_entry: int = DEFAULT_POINTS_PER_ENTRY,
    sources: list[str] | None = None,
) -> ShapeDatabase:
    """Canonicalize every shape, cluster per-class SDFs with k-means++ and keep
    the member closest to each cluster centroid as that cluster's exemplar.
    Deterministic per seed.

    SDF values and surface points are rounded to float32, the precision the
    `.sdfg` and `.pts` files store, so k-means clusters the values every later
    command reads and `load_database(save_database(db))` equals `db`. A class
    holds its SDFs once, as the rows of one (n, voxels) float32 matrix; each
    exemplar keeps a float64 copy of its row. The exemplar distances are the
    ones k-means returns for its final centroids, so no row is measured
    again, and its centroids are dropped before the next class is read.

    Every class is canonicalized first, and one `workers.fork_map` call,
    one forked worker per CPU, takes every SDF: the classes in order, each
    class's meshes listed largest first, with the triangle count as the
    cost, so the largest SDF of the look-ahead window starts first (the LPT
    rule; ties keep input order), across class boundaries too. The rows are
    consumed class by class, each written to its input position, so a
    class's k-means and exemplar picks run while the workers go on with
    their tasks in flight (one each plus one queued) of the next class. The
    caller holds one class's rows at most, plus the rows of fork_map's
    window. The bytes do not depend on the number of workers.

    Errors keep their order, class by class: InsufficientShapes, then
    DegenerateMesh from canonicalizing, then NonWatertight. The first two
    are found up front and raised when their class comes up, after every
    earlier class is built. A NonWatertight error is that of the first open
    shape in input order, raised once every shape of its class is read. It
    names the shape by its entry in `sources` (one per shape, such as its
    file path), else by its index in `shapes`.
    """
    class_ids = sorted({cid for cid, _ in shapes})
    if classes is None:
        classes = [f"class{cid}" for cid in class_ids]
    if class_ids != list(range(len(classes))):
        raise UnknownClass(f"class ids must be 0..{len(classes) - 1}, got {class_ids}")

    # Per class: its shapes' indices, then their canonical meshes or the error
    # to raise when the class comes up, then the rows largest mesh first.
    plan = []
    for cid in class_ids:
        members = [n for n, (c, _) in enumerate(shapes) if c == cid]
        try:
            if len(members) < k_per_class:
                raise InsufficientShapes(
                    f"class {classes[cid]} has {len(members)} shapes, needs {k_per_class}"
                )
            meshes = [canonicalize_mesh(shapes[n][1]) for n in members]
        except (InsufficientShapes, DegenerateMesh) as e:
            plan.append((members, e, []))
            continue
        plan.append((members, meshes,
                     sorted(range(len(meshes)), key=lambda row: -len(meshes[row].triangles))))
    jobs = [meshes[row] for _, meshes, order in plan for row in order]

    entries: list[ShapeEntry] = []
    with closing(fork_map(lambda mesh: _float32_sdf(mesh, resolution), jobs,
                          [len(mesh.triangles) for mesh in jobs])) as sdfs:
        for cid, (members, meshes, order) in zip(class_ids, plan):
            if isinstance(meshes, Exception):
                raise meshes
            data, opened = None, {}
            for row, sdf in zip(order, sdfs):
                if isinstance(sdf, NonWatertight):
                    opened[row] = sdf
                else:
                    values, origin, spacing = sdf
                    if data is None:  # after mesh_to_sdf has checked that a grid fits
                        data = np.empty((len(meshes), values.size), dtype=np.float32)
                    data[row] = values.reshape(-1)
            if opened:  # the first open shape in input order, once the class is read
                n = members[min(opened)]
                where = sources[n] if sources else f"shape {n}"
                raise NonWatertight(f"{opened[min(opened)]} in {where}")

            # The centroids are dropped here, not held while the next class is read.
            assign, sq_dists = kmeans_pp(data, k_per_class, np.random.default_rng(seed + cid))[1:]
            for k in range(k_per_class):
                members = np.flatnonzero(assign == k)
                if len(members) == 0:
                    # Exact-duplicate inputs can leave a cluster empty; fall back
                    # to the nearest row of the whole class, in the same column.
                    members = np.arange(len(data))
                # Compare the roots, the L2 distances: distinct squares can round
                # to one root, and argmin then takes the lower index.
                best = int(members[np.argmin(np.sqrt(sq_dists[members, k]))])
                points = sample_surface_points(meshes[best], points_per_entry,
                                               seed + 1000 * cid + k)
                entries.append(
                    ShapeEntry(
                        class_id=cid,
                        exemplar_index=k,
                        # SdfGrid widens the row to a float64 copy, so the exemplar
                        # does not keep the class matrix alive. Every grid of a
                        # resolution has the last one's layout.
                        sdf=SdfGrid(data[best].reshape(values.shape), origin, spacing),
                        points=points.astype(np.float32).astype(np.float64),
                        mesh=meshes[best],
                    )
                )
    # Every grid has resolution^3 voxels; this scale makes the distance an RMS one.
    normalization = float(np.sqrt(resolution**3))
    return ShapeDatabase(entries, k_per_class, list(classes), normalization)


def _float32_sdf(mesh: TriMesh, resolution: int):
    """mesh_to_sdf's values as float32, the precision build_database keeps,
    with the grid's origin and spacing; or the NonWatertight it raised. The
    values are not an SdfGrid, which would hold them as float64: a worker
    sends 4 bytes per voxel, and fork_map's window holds as many. The error is
    returned, not raised, so build_database can report the first open shape
    in input order whichever result arrives first."""
    try:
        sdf = mesh_to_sdf(mesh, resolution)
    except NonWatertight as e:
        return e
    return sdf.values.astype(np.float32), sdf.origin, sdf.spacing


def _squared_distances(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared L2 distance from x to each row of `rows` (to `rows` itself if
    it is one vector): the package's one SDF distance. A row's sum has the
    same bits whether it is summed alone or in a matrix."""
    return np.sum((rows - x) ** 2, axis=-1)


def _sdf_distances(phi: SdfGrid, entries: list[ShapeEntry]) -> np.ndarray:
    """L2 distance from phi to each entry's SDF over the flattened grids: the
    root of each entry's squared distance, as build_database compares them.
    One entry at a time, so no (entries, voxels) matrix is formed."""
    flat = phi.values.reshape(-1)
    return np.sqrt([_squared_distances(e.sdf.values.reshape(-1), flat) for e in entries])


def assign_exemplar(db: ShapeDatabase, phi: SdfGrid, class_id: int) -> int:
    """Index of the class exemplar with smallest L2 SDF distance to phi.

    Ties break toward the lowest index. A field read back from a `.sdfg` file
    and the in-memory exemplar it was written from measure the same, since
    build_database keeps SDF values at float32 precision.
    """
    return int(np.argmin(_sdf_distances(phi, db.class_entries(class_id))))


def hard_label(db: ShapeDatabase, phi: SdfGrid, class_id: int) -> np.ndarray:
    """One-hot K-vector at the assigned exemplar's global index."""
    label = np.zeros(db.total)
    label[db.global_index(class_id, assign_exemplar(db, phi, class_id))] = 1.0
    return label


def soft_label(db: ShapeDatabase, phi: SdfGrid) -> np.ndarray:
    """Clamped SDF similarity max(1 - ||phi - phi_k|| / normalization, 0) over
    all K entries, on flattened SDF vectors (the default normalization makes
    the distance an RMS one). The distances are assign_exemplar's."""
    dists = _sdf_distances(phi, db.entries)
    # Scaling the distance, not the vectors, keeps it finite or +inf (label 0)
    # under a tiny normalization, where scaled vectors would give inf - inf.
    with np.errstate(over="ignore"):
        return np.maximum(1.0 - dists / db.normalization, 0.0)


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
        write_points(directory / f"{stem}.pts", e.points)
        save_obj(directory / f"{stem}.obj", e.mesh)
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_database(directory) -> ShapeDatabase:
    directory = Path(directory)
    manifest = _read_manifest(directory / "manifest.json")
    entries, first = [], None
    for cid, cls in enumerate(manifest["classes"]):
        for k in range(manifest["k_per_class"]):
            stem = directory / f"{cls}_{k:04d}"
            points = _read_points(f"{stem}.pts")
            sdf = read_sdfg(f"{stem}.sdfg")
            first = first or (stem, len(points), _grid_layout(sdf))
            if len(points) != first[1]:  # the pose fit stacks the clouds
                raise MalformedFile(
                    f"{stem}.pts: {len(points)} points, but {first[0]}.pts has {first[1]}")
            if _grid_layout(sdf) != first[2]:  # labels compare grids voxel by voxel
                raise MalformedFile(
                    f"{stem}.sdfg: {_grid_layout(sdf)}, but {first[0]}.sdfg has {first[2]}")
            entries.append(ShapeEntry(cid, k, sdf, points, load_obj(f"{stem}.obj")))
    return ShapeDatabase(
        entries,
        manifest["k_per_class"],
        list(manifest["classes"]),
        float(manifest["normalization"]),
    )


def _grid_layout(sdf: SdfGrid) -> str:
    """Shape, origin and spacing of a grid, exactly (repr round-trips a float)."""
    return (f"{'x'.join(map(str, sdf.values.shape))} grid, origin {sdf.origin.tolist()}, "
            f"spacing {sdf.spacing!r}")


def _read_manifest(path) -> dict:
    """The manifest written by save_database; MalformedFile if it is not one."""
    manifest = parse_json(read_text(path), path)
    missing = sorted({"version", "k_per_class", "classes", "normalization"} - set(manifest))
    if missing:
        raise MalformedFile(f"{path}: missing manifest keys {missing}")
    if of_type(manifest["version"], int, f"{path}: version") != DB_VERSION:  # true == 1
        raise MalformedFile(f"{path}: unsupported database version {manifest['version']!r}")
    k = of_type(manifest["k_per_class"], int, f"{path}: k_per_class")
    if k < 1:
        raise MalformedFile(f"{path}: k_per_class must be positive, got {k}")
    classes = manifest["classes"]
    if (not isinstance(classes, list) or not classes
            or not all(isinstance(c, str) for c in classes)):
        raise MalformedFile(f"{path}: classes must be a non-empty list of names")
    for n, c in enumerate(classes):
        # Each name stems the entry files inside the database directory.
        if c in ("", ".", "..") or "/" in c or "\0" in c:
            raise MalformedFile(f"{path}: class name {c!r} is not a plain file name")
        if c in classes[:n]:
            raise MalformedFile(f"{path}: duplicate class name {c!r}")
    norm = of_type(manifest["normalization"], float, f"{path}: normalization")
    if not 0 < norm < np.inf:
        raise MalformedFile(f"{path}: normalization must be positive and finite, got {norm!r}")
    return manifest


def float32_bytes(path, values: np.ndarray) -> bytes:
    """values as little-endian float32, the precision `.pts` and `.ply` files
    store; DataError naming `path` if a value is past the float32 range,
    before anything is written."""
    with np.errstate(over="ignore"):  # past the range: inf, the error below
        data = np.asarray(values, dtype="<f4")
    if not np.all(np.isfinite(data)):
        raise DataError(f"{path}: a coordinate is past the float32 range")
    return data.tobytes()


def write_points(path, points: np.ndarray) -> None:
    """Write a `.pts` file: a little-endian uint32 count, then float32 triples."""
    data = float32_bytes(path, points)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(points)))
        fh.write(data)


def _read_points(path) -> np.ndarray:
    """Read a points file (see write_points); MalformedFile if it is not one."""
    with open(path, "rb") as fh:
        header = fh.read(4)
        if len(header) < 4:
            raise MalformedFile(f"{path}: truncated header ({len(header)} bytes)")
        count, = struct.unpack("<I", header)
        if count == 0:  # build-db samples at least one; an empty cloud scores no collision
            raise MalformedFile(f"{path}: 0 points")
        found = os.fstat(fh.fileno()).st_size - 4
        if found != count * 12:
            raise MalformedFile(
                f"{path}: {count} points need {count * 12} payload bytes, found {found}"
            )
        points = np.frombuffer(fh.read(count * 12), dtype="<f4").reshape(count, 3)
    if not np.all(np.isfinite(points)):
        raise MalformedFile(f"{path}: non-finite point coordinates")
    return points.astype(np.float64)
