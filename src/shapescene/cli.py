"""Command-line driver wiring the library into file-based pipelines.

Single binary with subcommands; every run is deterministic given its inputs,
flags and seed. A JSON config file can supply defaults for most flags (unknown
keys are rejected); explicit flags win. Exit codes: 0 success, 1 usage error,
2 data error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .errors import DataError, ShapeSceneError, of_type, parse_json, read_text
from .geom import apply_pose, rotation_about_axis
from .mesh import TriMesh, load_obj, save_obj, voxelize_occupancy
from .metrics import DetectionBox, map3d, miv_and_collisions, relative_iou, scene_voxel_grid
from .optim import OptimConfig, fit_poses, resolve_collisions
from .scene import (
    PlacedObject,
    Scene,
    generate_scene,
    load_scene,
    perturb_pose,
    save_scene,
    shape_entry,
)
from .sdf import MIN_SDF_RESOLUTION, SdfGrid, write_sdfg
from .shapedb import (
    DEFAULT_K_PER_CLASS,
    DEFAULT_POINTS_PER_ENTRY,
    DEFAULT_SDF_RESOLUTION,
    ShapeDatabase,
    build_database,
    float32_bytes,
    hard_label,
    load_database,
    save_database,
    soft_label,
    write_points,
)
from .toys import write_toy_set
from .workers import fork_map

# Keys a JSON config file may provide; each maps onto the like-named flag.
CONFIG_KEYS = {
    "seed": int,
    "k": int,
    "res": int,
    "points": int,
    "lr": float,
    "iters": int,
    "anchor": float,
    "thresh": float,
    "normalization": float,
}


class _UsageError(Exception):
    """A flag or config value that parses but is out of range (exit 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; our contract reserves 2 for data errors.
    A usage error is one line on stderr, as every other error is; -h prints
    the usage."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message} (see {self.prog} -h)\n")


def load_config(path) -> dict:
    cfg = parse_json(read_text(path), path)
    for key, value in cfg.items():
        if key not in CONFIG_KEYS:
            raise DataError(f"{path}: unknown config key {key!r}")
        # 2.9 must not pass as 2, nor true as 1.
        cfg[key] = of_type(value, CONFIG_KEYS[key], f"{path}: field {key!r}")
    return cfg


def _opt_in(args, key: str, default, low, high=np.inf, ends="[]"):
    """The value of option `key`, from its flag or the config; a usage error
    unless it lies between low and high (NaN never does). Unset, it is `default`.

    `ends` marks each end closed "[" "]" or open "(" ")" as interval notation
    does; an infinite end is open, so inf never passes.
    """
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        return default
    close = ")" if high == np.inf else ends[1]
    above = low < value if ends[0] == "(" else low <= value
    below = value < high if close == ")" else value <= high
    if not (above and below):
        raise _UsageError(f"--{key} must be in {ends[0]}{low}, {high}{close}, got {value!r}")
    return value


def _load_db(path) -> ShapeDatabase:
    path = Path(path)
    if not (path / "manifest.json").exists():
        raise DataError(f"{path}: no manifest.json (not a shape database)")
    return load_database(path)


def cmd_make_toys(args) -> int:
    paths = write_toy_set(args.out)
    print(f"wrote {len(paths)} toy meshes under {args.out}")
    return 0


def _parse_pre_rotate(spec: str):
    axis_name, _, deg = spec.partition(",")
    try:
        angle = float(deg)
    except ValueError:
        angle = np.nan
    if axis_name not in ("x", "y", "z") or not np.isfinite(angle):
        raise _UsageError(f"--pre-rotate: expected AXIS,DEGREES, got {spec!r}")
    return rotation_about_axis(np.eye(3)["xyz".index(axis_name)], np.deg2rad(angle))


def cmd_build_db(args) -> int:
    k = _opt_in(args, "k", DEFAULT_K_PER_CLASS, 1)
    seed = _opt_in(args, "seed", 0, 0)
    res = _opt_in(args, "res", DEFAULT_SDF_RESOLUTION, MIN_SDF_RESOLUTION)
    points = _opt_in(args, "points", DEFAULT_POINTS_PER_ENTRY, 1)
    norm = _opt_in(args, "normalization", None, 0, ends="()")
    pre_rot = _parse_pre_rotate(args.pre_rotate) if args.pre_rotate else None
    mesh_root = Path(args.meshes)
    classes = sorted(p.name for p in mesh_root.iterdir() if p.is_dir())
    if not classes:
        raise DataError(f"{mesh_root}: no class subdirectories")
    shapes: list[tuple[int, TriMesh]] = []
    sources: list[str] = []
    for cid, cls in enumerate(classes):
        obj_paths = sorted((mesh_root / cls).glob("*.obj"))
        if not obj_paths:
            raise DataError(f"{mesh_root / cls}: no .obj files")
        for obj_path in obj_paths:
            mesh = load_obj(obj_path)
            if pre_rot is not None:
                mesh = TriMesh(mesh.vertices @ pre_rot.m.T, mesh.triangles)
            shapes.append((cid, mesh))
            sources.append(str(obj_path))
    db = build_database(shapes, k_per_class=k, seed=seed, classes=classes,
                        resolution=res, points_per_entry=points, sources=sources)
    if norm is not None:
        db.normalization = float(norm)
    save_database(db, args.out)
    print(f"built database: {db.class_count} classes x {db.k_per_class} exemplars -> {args.out}")
    return 0


def _parse_objects(spec: str) -> tuple[int, int]:
    lo, _, hi = spec.partition(":")
    try:
        a = int(lo)
        b = int(hi) if hi else a
    except ValueError:
        a = b = 0
    if a < 1 or b < a or b > np.iinfo(np.int64).max:  # rng.integers draws int64
        raise _UsageError(f"--objects: bad range {spec!r}")
    return a, b


def cmd_gen_scenes(args) -> int:
    seed = _opt_in(args, "seed", 0, 0)
    lo, hi = _parse_objects(args.objects)
    count = _opt_in(args, "count", None, 0)
    db = _load_db(args.db)
    if 8 * count > np.iinfo(np.intp).max:  # numpy could not form the counts
        raise MemoryError(f"{count} scenes are too many to allocate")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    counts = np.random.default_rng(seed).integers(lo, hi + 1, size=count)
    # Scene i depends only on seed + i and counts[i], so the workers' scenes
    # are the ones a loop makes; they are written in order as they arrive.
    # The object count is the cost, so the largest scenes start first.
    scenes = fork_map(lambda i: generate_scene(db, int(counts[i]), seed=seed + i), range(count),
                      counts)
    for i, scene in enumerate(scenes):
        save_scene(out / f"scene_{i:04d}.json", scene)
    print(f"wrote {count} scenes -> {out}")
    return 0


def cmd_labels(args) -> int:
    db = _load_db(args.db)
    scene = load_scene(args.scene)
    payload = {"objects": []}
    for o in scene.objects:
        entry = shape_entry(db, o)
        payload["objects"].append({
            "class": o.class_name,
            "exemplar": o.exemplar,
            "hard": [float(x) for x in hard_label(db, entry.sdf, entry.class_id)],
            "soft": [float(x) for x in soft_label(db, entry.sdf)],
        })
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote labels for {len(scene.objects)} objects -> {args.out}")
    return 0


def _optim_config(args) -> OptimConfig:
    return OptimConfig(
        lr=_opt_in(args, "lr", OptimConfig.lr, 0, ends="()"),
        iterations=_opt_in(args, "iters", OptimConfig.iterations, 1),
    )


def _write_trace(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for it, row in enumerate(rows):
            writer.writerow([it] + [repr(float(x)) for x in row])


def cmd_fit_pose(args) -> int:
    cfg = _optim_config(args)
    seed = _opt_in(args, "seed", 0, 0)
    rot = _opt_in(args, "perturb-rot", None, 0.0, 360.0)
    trans = _opt_in(args, "perturb-trans", None, 0.0)
    scale = _opt_in(args, "perturb-scale", None, 0.0, 1.0, ends="[)")
    db = _load_db(args.db)
    gt = load_scene(args.gt)
    if args.init:
        init = load_scene(args.init)
        if len(init.objects) != len(gt.objects):
            raise DataError(f"{args.init}: object count differs from {args.gt}")
        # The fit pairs point i of object k's cloud with point i of its target.
        for k, (a, b) in enumerate(zip(init.objects, gt.objects)):
            if (a.class_name, a.exemplar) != (b.class_name, b.exemplar):
                raise DataError(f"{args.init}: object {k} is not {b.class_name} exemplar "
                                f"{b.exemplar} as in {args.gt}")
    else:
        objects = [
            PlacedObject(
                o.class_name,
                o.exemplar,
                perturb_pose(o.pose, rot, trans, scale, seed=seed + 7 * k),
            )
            for k, o in enumerate(gt.objects)
        ]
        init = Scene(gt.seed, tuple(objects))
    targets = [apply_pose(o.pose, shape_entry(db, o).points) for o in gt.objects]
    freeze = frozenset(args.freeze or [])
    recovered, trace = fit_poses(db, init, targets, cfg, freeze=freeze)
    save_scene(args.out, recovered)
    if args.trace:
        _write_trace(args.trace, ["iteration", "pose", "total"],
                     [(v, v) for v in trace])
    print(f"fit {len(gt.objects)} objects, final objective {trace[-1]:.6g} -> {args.out}")
    return 0


def cmd_resolve(args) -> int:
    cfg = _optim_config(args)
    anchor = _opt_in(args, "anchor", 1.0, 0.0)
    db = _load_db(args.db)
    scene = load_scene(args.scene)
    resolved, trace = resolve_collisions(db, scene, cfg, anchor_term_weight=anchor)
    save_scene(args.out, resolved)
    if args.trace:
        _write_trace(args.trace, ["iteration", "collision", "anchor", "total"], trace)
    written = min(trace, key=lambda row: row[2])  # the iterate written: the first lowest total
    print(f"resolved scene, final collision loss {written[0]:.6g} -> {args.out}")
    return 0


def _scene_paths(path) -> list[Path]:
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        if not files:
            raise DataError(f"{path}: no scene JSON files")
        return files
    if not path.exists():
        raise DataError(f"{path}: no such file")
    return [path]


def cmd_evaluate(args) -> int:
    res = _opt_in(args, "res", 128, 1)
    thresh = _opt_in(args, "thresh", 0.25, 0.0, 1.0)
    # mAP compares poses only; iou and miv rasterise the database's meshes.
    db = None if args.metric == "map" else _load_db(args.db)
    preds = _scene_paths(args.pred)
    if args.metric != "miv":  # miv scores the predictions alone
        gts = _scene_paths(args.gt)
        if len(preds) != len(gts):
            raise DataError(
                f"{args.pred} has {len(preds)} scenes but {args.gt} has {len(gts)}"
            )
        # Two directories pair their scenes by file name (both lists are sorted).
        unpaired = sorted({p.name for p in preds} ^ {g.name for g in gts})
        if unpaired and Path(args.pred).is_dir() and Path(args.gt).is_dir():
            raise DataError(f"{unpaired[0]} is in only one of {args.pred} and {args.gt}")
    report: dict = {"metric": args.metric, "scenes": len(preds)}

    if args.metric == "iou":
        per_class: dict[str, list[float]] = {}
        rel_class: dict[str, list[float]] = {}
        for pp, gp in zip(preds, gts):
            rep = relative_iou(load_scene(pp), load_scene(gp), db, resolution=res)
            for cls, v in rep.per_class.items():
                per_class.setdefault(cls, []).append(v)
            for cls, v in rep.relative_per_class.items():
                rel_class.setdefault(cls, []).append(v)
        report["per_class"] = {c: float(np.mean(v)) for c, v in sorted(per_class.items())}
        report["relative_per_class"] = {
            c: float(np.mean(v)) for c, v in sorted(rel_class.items())
        }
        report["mean"] = float(np.mean(list(report["per_class"].values())))
        report["relative_mean"] = (
            float(np.mean(list(report["relative_per_class"].values())))
            if report["relative_per_class"] else 0.0
        )
        print(f"{'class':<16}{'iou':>10}{'rel_iou':>10}")
        for cls in report["per_class"]:
            rel = report["relative_per_class"].get(cls, float("nan"))
            print(f"{cls:<16}{report['per_class'][cls]:>10.4f}{rel:>10.4f}")
        print(f"{'mean':<16}{report['mean']:>10.4f}{report['relative_mean']:>10.4f}")
    elif args.metric == "map":
        # A prediction is matched only against its own scene's ground truths.
        pred_boxes, gt_boxes = [], []
        for k, (pp, gp) in enumerate(zip(preds, gts)):
            for o in load_scene(pp).objects:
                pred_boxes.append(DetectionBox(o.class_name, o.pose, scene=k))
            for o in load_scene(gp).objects:
                gt_boxes.append(DetectionBox(o.class_name, o.pose, scene=k))
        per_class, mean = map3d(pred_boxes, gt_boxes, thresh)
        report["per_class"] = {c: float(v) for c, v in sorted(per_class.items())}
        report["map"] = float(mean)
        report["threshold"] = thresh
        print(f"{'class':<16}{'ap':>10}")
        for cls, v in report["per_class"].items():
            print(f"{cls:<16}{v:>10.4f}")
        print(f"{'mAP@' + format(thresh, 'g'):<16}{mean:>10.4f}")
    elif args.metric == "miv":
        mivs, counts = [], []
        for pp in preds:
            miv, cnt = miv_and_collisions(load_scene(pp), db, resolution=res)
            mivs.append(miv)
            counts.append(cnt)
        report["miv"] = float(np.mean(mivs))
        report["collisions"] = int(np.sum(counts))
        print(f"{'scene':<16}{'miv':>12}{'collisions':>12}")
        for pp, miv, cnt in zip(preds, mivs, counts):
            print(f"{pp.stem:<16}{miv:>12.6f}{cnt:>12d}")
        print(f"{'mean/total':<16}{report['miv']:>12.6f}{report['collisions']:>12d}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _write_ply(path, verts: np.ndarray) -> None:
    # Binary little-endian PLY, vertex positions only.
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        f"element vertex {len(verts)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n"
    )
    data = float32_bytes(path, verts)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(data)


def cmd_export(args) -> int:
    res = _opt_in(args, "res", 128, 1)
    db = _load_db(args.db)
    scene = load_scene(args.scene)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "sdfg":
        origin, dims, spacing = scene_voxel_grid([scene], db, res)
        occ = np.zeros(dims, dtype=bool)
        for o in scene.objects:
            occ |= voxelize_occupancy(shape_entry(db, o).mesh, o.pose, origin, dims, spacing)
        write_sdfg(out / "scene.sdfg", SdfGrid(occ.astype(np.float64), origin, spacing))
        print(f"wrote occupancy {dims} -> {out / 'scene.sdfg'}")
        return 0
    for k, o in enumerate(scene.objects):
        entry = shape_entry(db, o)
        stem = out / f"object_{k:03d}"
        # A pose past the float range makes inf or NaN values: one DataError,
        # not a NumPy warning per operation.
        with np.errstate(over="ignore", invalid="ignore"):
            posed = apply_pose(o.pose, entry.points if args.format == "pts" else entry.mesh.vertices)
        if not np.all(np.isfinite(posed)):
            raise DataError(f"object {k}: a posed coordinate is past the float range")
        if args.format == "obj":
            save_obj(f"{stem}.obj", TriMesh(posed, entry.mesh.triangles))
        elif args.format == "ply":
            _write_ply(f"{stem}.ply", posed)
        elif args.format == "pts":
            write_points(f"{stem}.pts", posed)
    print(f"exported {len(scene.objects)} objects as {args.format} -> {out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="shapescene", description=__doc__)
    parser.add_argument("--config", help="JSON config supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-toys", help="write the bundled 12-mesh toy set")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_toys)

    p = sub.add_parser("build-db", help="cluster meshes into an exemplar database")
    p.add_argument("--meshes", required=True, help="directory with one subdir per class")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--res", type=int, help="SDF grid resolution")
    p.add_argument("--points", type=int, help="surface samples per exemplar")
    p.add_argument("--pre-rotate", help="AXIS,DEGREES applied to every input mesh")
    p.add_argument("--normalization", type=float, help="soft-label SDF divisor override")
    p.set_defaults(func=cmd_build_db)

    p = sub.add_parser("gen-scenes", help="sample synthetic scenes from a database")
    p.add_argument("--db", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--objects", default="2:4", help="object count N or range A:B")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gen_scenes)

    p = sub.add_parser("labels", help="hard/soft selection labels for a scene")
    p.add_argument("--db", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_labels)

    p = sub.add_parser("fit-pose", help="recover poses from a perturbed scene")
    p.add_argument("--db", required=True)
    p.add_argument("--gt", required=True, help="ground-truth scene JSON")
    p.add_argument("--init", help="initial scene; omitted = perturb the ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="objective trace CSV")
    p.add_argument("--iters", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--freeze", action="append", choices=["rot", "scale", "trans"])
    p.add_argument("--perturb-rot", type=float, default=10.0, help="degrees, in [0, 360]")
    p.add_argument("--perturb-trans", type=float, default=0.1, help=">= 0")
    p.add_argument("--perturb-scale", type=float, default=0.1, help="in [0, 1)")
    p.set_defaults(func=cmd_fit_pose)

    p = sub.add_parser("resolve", help="push interpenetrating objects apart")
    p.add_argument("--db", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="loss trace CSV")
    p.add_argument("--iters", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--anchor", type=float, help="anchor term weight")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("evaluate", help="compare predicted scenes against ground truth")
    p.add_argument("--db", required=True)
    p.add_argument("--pred", required=True, help="scene file or directory")
    p.add_argument("--gt", required=True, help="scene file or directory; miv does not read it")
    p.add_argument("--metric", required=True, choices=["iou", "map", "miv"])
    p.add_argument("--res", type=int, help="voxel resolution for iou and miv")
    p.add_argument("--thresh", type=float, help="mAP IoU threshold")
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export", help="materialize a scene for external viewers")
    p.add_argument("--db", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", required=True, choices=["obj", "ply", "pts", "sdfg"])
    p.add_argument("--res", type=int, help="occupancy resolution for sdfg")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            for key, value in load_config(args.config).items():
                if getattr(args, key, None) is None:  # explicit flags win
                    setattr(args, key, value)
        return args.func(args)
    except _UsageError as e:
        print(f"shapescene: error: {e}", file=sys.stderr)
        return 1
    except (ShapeSceneError, OSError, MemoryError) as e:
        print(f"shapescene: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
