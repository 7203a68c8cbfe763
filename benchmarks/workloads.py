"""The benchmark's workloads: input generation, the commands of one item, and
the checks and quality guards computed from an item's output files.

Every input is generated from the workload seed with `shapescene.toys` and the
CLI itself; the program only ever sees generated files. Commands go through
`run(argv) -> exit code`, which calls `shapescene.cli.main` in-process.

Quality guards are deterministic for a seed. Every workload reports two, so
that each end-to-end metric exists on every workload and never reads 0:
`quality_error` (lower is better) and `quality_score` (higher is better).
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# The toy database of reconstruct and scenes is built with a fixed seed, so
# every workload seed uses the same exemplars and varies only the scenes;
# k-means exemplar choice otherwise moves the collision residual by ~15%.
TOY_K = 3
TOY_DB_SEED = 0

# build: 2 classes x 8 canonical meshes. Box and frustum faces are cut into an
# m x m grid (12 m^2 triangles); prisms and cones have 4 * segments triangles.
# Triangle counts span 48 to 1000 and do not depend on the seed, so every seed
# does the same amount of distance work; the seed changes the tapers.
BOX_GRID = (2, 2, 2, 2, 2, 2, 3, 4)
CYLINDER_SEGMENTS = (12, 12, 13, 13, 14, 14, 16, 250)
BUILD_K = 4
SDF_SAMPLES = 512

# reconstruct: 8-object scenes; fit-pose from the perturbed ground truth, then
# resolve on the scene with ground-plane positions pulled halfway to their
# centroid, so objects interpenetrate. The budgets give both gradient paths
# (SO(3) backward in fit-pose, collision sampling in resolve) real weight.
RECONSTRUCT_SCENES = 16
RECONSTRUCT_OBJECTS = 8
FIT_ITERS = 300
RESOLVE_ITERS = 40
PULL = 0.5
# A fitted object counts as recovered when it is this close to ground truth.
RECOVERED_ROT = 1e-5
RECOVERED_TRANS = 1e-6
# Largest final fit objective accepted on any seed (converged values are ~1e-11).
FIT_OBJECTIVE_LIMIT = 1e-8

# scenes: crowded scenes in the default bounds, then voxel IoU, mAP and mean
# intersecting volume of seeded perturbed predictions. Item i places
# SCENE_OBJECTS[i % 3] objects, so every seed has the same object-count mix.
SCENE_COUNT = 48
SCENE_OBJECTS = (6, 7, 8)
EVAL_RES = 64
MAP_THRESH = 0.6
PRED_ROT_DEG = 10.0
PRED_TRANS = 0.1
PRED_SCALE = 0.1


def digest_dir(path: Path) -> str:
    """SHA-256 over every file under `path`: relative names and bytes."""
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def _last_row(csv_path: Path) -> list[float]:
    rows = Path(csv_path).read_text().splitlines()
    return [float(x) for x in rows[-1].split(",")]


def _first_row(csv_path: Path) -> list[float]:
    rows = Path(csv_path).read_text().splitlines()
    return [float(x) for x in rows[1].split(",")]


def _scene_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def _build_toy_db(run, inputs: Path) -> None:
    for argv in (["make-toys", "--out", str(inputs / "toys")],
                 ["build-db", "--meshes", str(inputs / "toys"), "--out",
                  str(inputs / "db"), "--k", str(TOY_K), "--seed", str(TOY_DB_SEED)]):
        if run(argv) != 0:
            raise RuntimeError(f"set-up command failed: {' '.join(argv)}")


# -- exact reference geometry for convex meshes -------------------------------

def _segment_distance(p, a, b):
    ab = b - a
    t = np.clip(np.einsum("pmk,mk->pm", p - a, ab) / np.einsum("mk,mk->m", ab, ab), 0, 1)
    return np.linalg.norm(p - (a + t[..., None] * ab), axis=-1)


def convex_sdf(vertices: np.ndarray, triangles: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Signed distance to a closed convex triangle mesh (negative inside).

    Independent of shapescene: the sign comes from the face planes, the
    magnitude from a vectorised closest-point-on-triangle search.
    """
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    normal = np.cross(b - a, c - a)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    outward = np.sign(np.einsum("mk,mk->m", normal, a - vertices.mean(axis=0)))
    normal *= outward[:, None]
    inside = np.all((points @ normal.T) - np.einsum("mk,mk->m", normal, a) < 0, axis=1)
    best = np.full(len(points), np.inf)
    for lo in range(0, len(triangles), 128):
        sl = slice(lo, lo + 128)
        pa, pb, pc, n = a[sl], b[sl], c[sl], normal[sl]
        d = points[:, None, :] - pa
        e1, e2 = pb - pa, pc - pa
        aa = np.einsum("mk,mk->m", e1, e1)
        ab = np.einsum("mk,mk->m", e1, e2)
        bb = np.einsum("mk,mk->m", e2, e2)
        d1 = np.einsum("pmk,mk->pm", d, e1)
        d2 = np.einsum("pmk,mk->pm", d, e2)
        det = aa * bb - ab * ab
        alpha = (bb * d1 - ab * d2) / det
        beta = (aa * d2 - ab * d1) / det
        interior = (alpha >= 0) & (beta >= 0) & (alpha + beta <= 1)
        plane = np.abs(np.einsum("pmk,mk->pm", d, n))
        edge = np.minimum(_segment_distance(points[:, None, :], pa, pb),
                          np.minimum(_segment_distance(points[:, None, :], pb, pc),
                                     _segment_distance(points[:, None, :], pa, pc)))
        best = np.minimum(best, np.where(interior, plane, edge).min(axis=1))
    return np.where(inside, -best, best)


def grid_subdivide(vertices: np.ndarray, triangles: np.ndarray, m: int):
    """Split every triangle into m^2 by an m x m barycentric grid, merging
    shared vertices so the result stays watertight."""
    verts, tris = [], []
    for t in triangles:
        a, b, c = vertices[t]
        local = {}
        for i in range(m + 1):
            for j in range(m + 1 - i):
                local[i, j] = len(verts)
                verts.append(a + (b - a) * i / m + (c - a) * j / m)
        for i in range(m):
            for j in range(m - i):
                tris.append((local[i, j], local[i + 1, j], local[i, j + 1]))
                if j < m - i - 1:
                    tris.append((local[i + 1, j], local[i + 1, j + 1], local[i, j + 1]))
    verts = np.array(verts)
    _, first, inverse = np.unique(np.round(verts, 12), axis=0, return_index=True,
                                  return_inverse=True)
    return verts[first], inverse.reshape(-1)[np.array(tris)]


# -- build --------------------------------------------------------------------

class Build:
    name = "build"
    items_per_run = len(BOX_GRID) + len(CYLINDER_SEGMENTS)  # shapes per build-db

    def setup(self, run, seed: int, inputs: Path) -> None:
        from shapescene.mesh import TriMesh, save_obj
        from shapescene.toys import make_box, make_cylinder

        rng = np.random.default_rng(seed)
        for cls in ("box", "cylinder"):
            (inputs / "meshes" / cls).mkdir(parents=True)
        for i, m in enumerate(BOX_GRID):
            box = make_box(1.0, 1.0, 1.0, taper=float(rng.uniform(0.3, 1.0)))
            verts, tris = grid_subdivide(box.vertices, box.triangles, m)
            save_obj(inputs / "meshes" / "box" / f"box_{i:02d}.obj", TriMesh(verts, tris))
        for i, segments in enumerate(CYLINDER_SEGMENTS):
            cyl = make_cylinder(0.5, 1.0, segments, taper=float(rng.uniform(0.2, 1.0)))
            save_obj(inputs / "meshes" / "cylinder" / f"cylinder_{i:02d}.obj", cyl)

    def items(self, seed: int, inputs: Path) -> list:
        return [0]

    def run_item(self, run, seed: int, inputs: Path, item, out: Path) -> list[int]:
        return [run(["build-db", "--meshes", str(inputs / "meshes"), "--out",
                     str(out / "db"), "--k", str(BUILD_K), "--seed", str(seed)])]

    def check_item(self, seed: int, inputs: Path, item, out: Path) -> tuple[list, dict]:
        from shapescene.mesh import canonicalize_mesh, load_obj
        from shapescene.shapedb import load_database

        db = load_database(out / "db")
        if db.classes != ["box", "cylinder"] or db.k_per_class != BUILD_K:
            return [f"unexpected database layout {db.classes} x {db.k_per_class}"], None
        problems = []
        res = db.entries[0].sdf.values.shape[0]
        rng = np.random.default_rng(seed + 17)
        flat = np.sort(rng.choice(res**3, SDF_SAMPLES, replace=False))
        idx = np.stack(np.unravel_index(flat, (res, res, res)), axis=1)
        centers = db.entries[0].sdf.origin + db.entries[0].sdf.spacing * idx
        sources, inside_voxels, sample_values = [], [], []
        rel_errors, coverage = [], []
        for cid, cls in enumerate(db.classes):
            inputs_c = [canonicalize_mesh(load_obj(p))
                        for p in sorted((inputs / "meshes" / cls).glob("*.obj"))]
            stored_c, src_c = [], []
            for e in db.class_entries(cid):
                src = [i for i, mesh in enumerate(inputs_c)
                       if mesh.vertices.shape == e.mesh.vertices.shape
                       and np.allclose(mesh.vertices, e.mesh.vertices, atol=1e-12)]
                if len(src) != 1:
                    problems.append(f"{cls} exemplar {e.exemplar_index} matches no input")
                    continue
                src_c.append(src[0])
                exact = convex_sdf(e.mesh.vertices, e.mesh.triangles, centers)
                stored = e.sdf.values.reshape(-1)[flat]
                stored_c.append(stored)
                off_surface = np.abs(exact) > 1e-6
                if np.any(np.sign(stored[off_surface]) != np.sign(exact[off_surface])):
                    problems.append(f"{cls} exemplar {e.exemplar_index}: inside/outside sign")
                err = np.abs(stored - exact)
                if np.any(err > 1e-6 + 1e-6 * np.abs(exact)):
                    problems.append(f"{cls} exemplar {e.exemplar_index}: distance off "
                                    f"by {err.max():.3g}")
                rel_errors.append(err[off_surface] / np.abs(exact[off_surface]))
                inside_voxels.append(int(np.count_nonzero(e.sdf.values < 0)))
                sample_values.append([float(v) for v in stored[:64]])
            if len(set(src_c)) != len(src_c):
                problems.append(f"{cls}: two exemplars share one input shape")
            sources.append(src_c)
            for mesh in inputs_c if stored_c else ():
                exact = convex_sdf(mesh.vertices, mesh.triangles, centers)
                rms = min(np.sqrt(np.mean((exact - s) ** 2)) for s in stored_c)
                coverage.append(max(1.0 - rms, 0.0))
        # quality_error: mean relative SDF error against the exact convex
        # distance (float32 storage puts it near 2e-8); quality_score: mean
        # similarity 1 - RMS distance of each input shape to its nearest exemplar.
        return problems, {
            "sources": sources, "inside_voxels": inside_voxels, "sample_values": sample_values,
            "quality_error": float(np.mean(np.concatenate(rel_errors))) if rel_errors else 1.0,
            "quality_score": float(np.mean(coverage)) if coverage else 0.0,
        }

    @staticmethod
    def guards(records: list[dict]) -> dict:
        return {"quality_error": float(np.mean([r["quality_error"] for r in records])),
                "quality_score": float(np.mean([r["quality_score"] for r in records]))}

    @staticmethod
    def compare(ref: dict, rec: dict) -> list[str]:
        problems = []
        if rec["sources"] != ref["sources"]:
            problems.append(f"exemplar choice {rec['sources']} != reference {ref['sources']}")
        for got, want in zip(rec["inside_voxels"], ref["inside_voxels"]):
            if abs(got - want) > 16:
                problems.append(f"inside voxels {got} != reference {want}")
        if not np.allclose(rec["sample_values"], ref["sample_values"], atol=1e-5, rtol=0):
            problems.append("SDF samples differ from reference")
        return problems


# -- reconstruct --------------------------------------------------------------

def _rotation_angle(r1: np.ndarray, r2: np.ndarray) -> float:
    c = (np.trace(r1.T @ r2) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


class Reconstruct:
    name = "reconstruct"
    items_per_run = 1

    def setup(self, run, seed: int, inputs: Path) -> None:
        _build_toy_db(run, inputs)
        argv = ["gen-scenes", "--db", str(inputs / "db"), "--out", str(inputs / "scenes"),
                "--count", str(RECONSTRUCT_SCENES), "--objects", str(RECONSTRUCT_OBJECTS),
                "--seed", str(seed * 1000)]
        if run(argv) != 0:
            raise RuntimeError(f"set-up command failed: {' '.join(argv)}")
        (inputs / "pulled").mkdir()
        for path in sorted((inputs / "scenes").glob("*.json")):
            scene = _scene_json(path)
            ts = np.array([o["t"] for o in scene["objects"]])
            centroid = ts.mean(axis=0)
            for o, t in zip(scene["objects"], ts):
                pulled = centroid + (t - centroid) * PULL
                o["t"] = [float(pulled[0]), float(pulled[1]), float(t[2])]
            (inputs / "pulled" / path.name).write_text(json.dumps(scene, indent=2) + "\n")

    def items(self, seed: int, inputs: Path) -> list:
        return list(range(RECONSTRUCT_SCENES))

    def run_item(self, run, seed: int, inputs: Path, item, out: Path) -> list[int]:
        db = str(inputs / "db")
        name = f"scene_{item:04d}.json"
        return [
            run(["fit-pose", "--db", db, "--gt", str(inputs / "scenes" / name),
                 "--out", str(out / "fit.json"), "--trace", str(out / "fit.csv"),
                 "--iters", str(FIT_ITERS), "--seed", str(seed * 100 + item)]),
            run(["resolve", "--db", db, "--scene", str(inputs / "pulled" / name),
                 "--out", str(out / "resolved.json"), "--trace", str(out / "resolve.csv"),
                 "--iters", str(RESOLVE_ITERS)]),
        ]

    def check_item(self, seed: int, inputs: Path, item, out: Path) -> tuple[list, dict]:
        problems = []
        name = f"scene_{item:04d}.json"
        gt = _scene_json(inputs / "scenes" / name)["objects"]
        fit = _scene_json(out / "fit.json")["objects"]
        pulled = _scene_json(inputs / "pulled" / name)["objects"]
        resolved = _scene_json(out / "resolved.json")["objects"]
        objective = _last_row(out / "fit.csv")[-1]
        collision = _last_row(out / "resolve.csv")[1]
        if not objective <= FIT_OBJECTIVE_LIMIT:
            problems.append(f"fit objective {objective:.3g} above {FIT_OBJECTIVE_LIMIT}")
        recovered = [
            _rotation_angle(np.reshape(g["R"], (3, 3)), np.reshape(f["R"], (3, 3))) < RECOVERED_ROT
            and np.max(np.abs(np.subtract(g["t"], f["t"]))) < RECOVERED_TRANS
            and np.max(np.abs(np.subtract(g["s"], f["s"]))) < RECOVERED_TRANS
            for g, f in zip(gt, fit)
        ]
        if any(a["R"] != b["R"] or a["s"] != b["s"] or a["class"] != b["class"]
               for a, b in zip(pulled, resolved)):
            problems.append("resolve changed more than translations")
        if not collision <= _first_row(out / "resolve.csv")[1]:
            problems.append(f"final collision {collision:.6g} above the initial one")
        return problems, {"fit_objective": objective, "collision_residual": collision,
                          "recovered": float(np.mean(recovered)),
                          "resolved_t": [o["t"] for o in resolved]}

    @staticmethod
    def guards(records: list[dict]) -> dict:
        residual = float(np.mean([r["collision_residual"] for r in records]))
        return {"quality_error": residual,
                "quality_score": float(np.mean([r["recovered"] for r in records])),
                "guard.fit_objective": float(np.mean([r["fit_objective"] for r in records])),
                "guard.collision_residual": residual}

    @staticmethod
    def compare(ref: dict, rec: dict) -> list[str]:
        problems = []
        if rec["fit_objective"] > 1.5 * ref["fit_objective"] + 1e-13:
            problems.append(f"fit objective {rec['fit_objective']:.4g} worse than reference "
                            f"{ref['fit_objective']:.4g}")
        if abs(rec["collision_residual"] - ref["collision_residual"]) > (
                0.02 * ref["collision_residual"] + 1e-6):
            problems.append(f"collision residual {rec['collision_residual']:.6g} != reference "
                            f"{ref['collision_residual']:.6g}")
        if not np.allclose(rec["resolved_t"], ref["resolved_t"], atol=1e-5, rtol=0):
            problems.append("resolved positions differ from reference")
        return problems


# -- scenes -------------------------------------------------------------------

def _rodrigues(axis: np.ndarray, angle: float) -> np.ndarray:
    k = axis / np.linalg.norm(axis)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle) * kx + (1.0 - np.cos(angle)) * (kx @ kx)


def perturbed_prediction(scene: dict, seed: int, item: int) -> dict:
    """Seeded prediction: each pose rotated by a fixed angle about a random
    axis, shifted and rescaled by bounded random amounts."""
    objects = []
    for k, o in enumerate(scene["objects"]):
        rng = np.random.default_rng([seed, item, k])
        r = _rodrigues(rng.normal(size=3), np.deg2rad(PRED_ROT_DEG)) @ np.reshape(o["R"], (3, 3))
        direction = rng.normal(size=3)
        t = np.add(o["t"], direction / np.linalg.norm(direction) * rng.uniform(0, PRED_TRANS))
        s = np.multiply(o["s"], 1.0 + rng.uniform(-PRED_SCALE, PRED_SCALE, size=3))
        objects.append({"class": o["class"], "exemplar": o["exemplar"],
                        "R": [float(x) for x in r.reshape(-1)],
                        "t": [float(x) for x in t], "s": [float(x) for x in s]})
    return {"seed": scene["seed"], "objects": objects}


class Scenes:
    name = "scenes"
    items_per_run = 1

    def setup(self, run, seed: int, inputs: Path) -> None:
        _build_toy_db(run, inputs)

    def items(self, seed: int, inputs: Path) -> list:
        return list(range(SCENE_COUNT))

    def run_item(self, run, seed: int, inputs: Path, item, out: Path) -> list[int]:
        db = str(inputs / "db")
        objects = SCENE_OBJECTS[item % len(SCENE_OBJECTS)]
        codes = [run(["gen-scenes", "--db", db, "--out", str(out / "gt"), "--count", "1",
                      "--objects", str(objects), "--seed", str(seed * 1000 + item)])]
        if codes[0] != 0:
            return codes
        pred = perturbed_prediction(_scene_json(out / "gt" / "scene_0000.json"), seed, item)
        (out / "pred").mkdir()
        (out / "pred" / "scene_0000.json").write_text(json.dumps(pred, indent=2) + "\n")
        for metric in ("iou", "map", "miv"):
            codes.append(run(["evaluate", "--db", db, "--pred", str(out / "pred"),
                              "--gt", str(out / "gt"), "--metric", metric,
                              "--res", str(EVAL_RES), "--thresh", str(MAP_THRESH),
                              "--out", str(out / f"{metric}.json")]))
        return codes

    def check_item(self, seed: int, inputs: Path, item, out: Path) -> tuple[list, dict]:
        problems = []
        gt = _scene_json(out / "gt" / "scene_0000.json")["objects"]
        iou = _scene_json(out / "iou.json")
        ap = _scene_json(out / "map.json")
        miv = _scene_json(out / "miv.json")
        expected = SCENE_OBJECTS[item % len(SCENE_OBJECTS)]
        if len(gt) != expected:
            problems.append(f"{len(gt)} objects placed, expected {expected}")
        if not 0.0 < iou["relative_mean"] <= 1.0:
            problems.append(f"relative IoU {iou['relative_mean']} outside (0, 1]")
        if not 0.0 <= ap["map"] <= 1.0 or miv["miv"] < 0.0:
            problems.append("mAP or mIV out of range")
        return problems, {
            "placements": [[o["class"], o["exemplar"]] + o["t"] + o["R"] for o in gt],
            "rel_iou": iou["relative_mean"], "map": ap["map"], "miv": miv["miv"],
        }

    @staticmethod
    def guards(records: list[dict]) -> dict:
        rel = float(np.mean([r["rel_iou"] for r in records]))
        ap = float(np.mean([r["map"] for r in records]))
        return {"quality_error": 1.0 - rel, "quality_score": ap,
                "guard.rel_iou": rel, "guard.map": ap}

    @staticmethod
    def compare(ref: dict, rec: dict) -> list[str]:
        problems = []
        got, want = rec["placements"], ref["placements"]
        if ([p[:2] for p in got] != [p[:2] for p in want]
                or not np.allclose([p[2:] for p in got], [p[2:] for p in want],
                                   atol=1e-9, rtol=0)):
            problems.append("placements differ from reference")
        if abs(rec["rel_iou"] - ref["rel_iou"]) > 1e-3:
            problems.append(f"relative IoU {rec['rel_iou']:.6f} != reference {ref['rel_iou']:.6f}")
        if abs(rec["miv"] - ref["miv"]) > 1e-3:
            problems.append(f"mIV {rec['miv']:.6g} != reference {ref['miv']:.6g}")
        return problems


WORKLOADS = {w.name: w for w in (Build(), Reconstruct(), Scenes())}
