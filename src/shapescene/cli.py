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
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import DataError, ShapeSceneError
from .geom import Pose9DoF, apply_pose, rotation_about_axis
from .mesh import TriMesh, load_obj, save_obj, voxelize_occupancy
from .metrics import (
    DetectionBox,
    _scene_bounds,
    map3d,
    miv_and_collisions,
    relative_iou,
)
from .optim import OptimConfig, fit_poses, resolve_collisions
from .scene import (
    PlacedObject,
    Scene,
    class_id,
    generate_scene,
    load_scene,
    perturb_pose,
    save_scene,
    scene_grid,
)
from .sdf import SdfGrid, write_sdfg
from .shapedb import (
    DEFAULT_K_PER_CLASS,
    DEFAULT_POINTS_PER_ENTRY,
    DEFAULT_SDF_RESOLUTION,
    ShapeDatabase,
    build_database,
    hard_label,
    load_database,
    save_database,
    soft_label,
)
from .toys import write_toy_set

# Keys a JSON config file may provide; each maps onto the like-named flag.
CONFIG_KEYS = {
    "seed": int,
    "k": int,
    "res": int,
    "points": int,
    "tau": float,
    "lr": float,
    "iters": int,
    "warmup": int,
    "anchor": float,
    "thresh": float,
    "normalization": float,
}


class _UsageError(Exception):
    """A flag or config value that parses but is out of range (exit 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; our contract reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(cfg, dict):
        raise DataError(f"{path}: config must be a JSON object")
    for key, value in cfg.items():
        if key not in CONFIG_KEYS:
            raise DataError(f"{path}: unknown config key {key!r}")
        try:
            cfg[key] = CONFIG_KEYS[key](value)
        except (TypeError, ValueError):
            raise DataError(f"{path}: field {key!r} has invalid value {value!r}") from None
    return cfg


def _opt(args, config: dict, key: str, default):
    """Effective value of an option: flag, else config entry, else default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _load_db(path) -> ShapeDatabase:
    path = Path(path)
    if not (path / "manifest.json").exists():
        raise DataError(f"{path}: no manifest.json (not a shape database)")
    return load_database(path)


def _load_scene(path) -> Scene:
    try:
        return load_scene(path)
    except (KeyError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: malformed scene file ({e})") from None


def cmd_make_toys(args, config) -> int:
    paths = write_toy_set(args.out)
    print(f"wrote {len(paths)} toy meshes under {args.out}")
    return 0


def cmd_build_db(args, config) -> int:
    mesh_root = Path(args.meshes)
    classes = sorted(p.name for p in mesh_root.iterdir() if p.is_dir())
    if not classes:
        raise DataError(f"{mesh_root}: no class subdirectories")
    pre_rot = None
    if args.pre_rotate:
        axis_name, _, deg = args.pre_rotate.partition(",")
        if axis_name not in ("x", "y", "z") or not deg:
            raise DataError(f"--pre-rotate: expected AXIS,DEGREES, got {args.pre_rotate!r}")
        axis = np.eye(3)["xyz".index(axis_name)]
        pre_rot = rotation_about_axis(axis, np.deg2rad(float(deg)))
    shapes: list[tuple[int, TriMesh]] = []
    for cid, cls in enumerate(classes):
        for obj_path in sorted((mesh_root / cls).glob("*.obj")):
            mesh = load_obj(obj_path)
            if pre_rot is not None:
                mesh = TriMesh(mesh.vertices @ pre_rot.m.T, mesh.triangles)
            shapes.append((cid, mesh))
    db = build_database(
        shapes,
        k_per_class=_opt(args, config, "k", DEFAULT_K_PER_CLASS),
        seed=_opt(args, config, "seed", 0),
        classes=classes,
        resolution=_opt(args, config, "res", DEFAULT_SDF_RESOLUTION),
        points_per_entry=_opt(args, config, "points", DEFAULT_POINTS_PER_ENTRY),
    )
    norm = _opt(args, config, "normalization", None)
    if norm is not None:
        db.normalization = float(norm)
    save_database(db, args.out)
    print(f"built database: {db.class_count} classes x {db.k_per_class} exemplars -> {args.out}")
    return 0


def _parse_objects(spec: str) -> tuple[int, int]:
    lo, _, hi = spec.partition(":")
    a = int(lo)
    b = int(hi) if hi else a
    if a < 1 or b < a:
        raise DataError(f"--objects: bad range {spec!r}")
    return a, b


def cmd_gen_scenes(args, config) -> int:
    db = _load_db(args.db)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = _opt(args, config, "seed", 0)
    lo, hi = _parse_objects(args.objects)
    counts = np.random.default_rng(seed).integers(lo, hi + 1, size=args.count)
    for i in range(args.count):
        scene = generate_scene(db, int(counts[i]), seed=seed + i)
        save_scene(out / f"scene_{i:04d}.json", scene)
    print(f"wrote {args.count} scenes -> {out}")
    return 0


def cmd_labels(args, config) -> int:
    db = _load_db(args.db)
    scene = _load_scene(args.scene)
    payload = {"objects": []}
    for o in scene.objects:
        cid = class_id(db, o.class_name)
        sdf = db.entry(cid, o.exemplar).sdf
        payload["objects"].append({
            "class": o.class_name,
            "exemplar": o.exemplar,
            "hard": [float(x) for x in hard_label(db, sdf, cid)],
            "soft": [float(x) for x in soft_label(db, sdf)],
        })
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote labels for {len(scene.objects)} objects -> {args.out}")
    return 0


def _optim_config(args, config) -> OptimConfig:
    try:
        return OptimConfig(
            lr=_opt(args, config, "lr", 1e-2),
            iterations=_opt(args, config, "iters", 500),
            warmup=_opt(args, config, "warmup", 0),
        )
    except ValueError as e:
        raise _UsageError(str(e)) from None


def _write_trace(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for it, row in enumerate(rows):
            writer.writerow([it] + [repr(float(x)) for x in row])


def cmd_fit_pose(args, config) -> int:
    cfg = _optim_config(args, config)
    db = _load_db(args.db)
    gt = _load_scene(args.gt)
    seed = _opt(args, config, "seed", 0)
    if args.init:
        init = _load_scene(args.init)
        if len(init.objects) != len(gt.objects):
            raise DataError(f"{args.init}: object count differs from {args.gt}")
    else:
        objects = [
            PlacedObject(
                o.class_name,
                o.exemplar,
                perturb_pose(o.pose, args.perturb_rot, args.perturb_trans,
                             args.perturb_scale, seed=seed + 7 * k),
            )
            for k, o in enumerate(gt.objects)
        ]
        init = Scene(gt.seed, tuple(objects))
    targets = [
        apply_pose(o.pose, db.entry(class_id(db, o.class_name), o.exemplar).points)
        for o in gt.objects
    ]
    freeze = frozenset(args.freeze or [])
    recovered, trace = fit_poses(db, init, targets, cfg, freeze=freeze)
    save_scene(args.out, recovered)
    if args.trace:
        _write_trace(args.trace, ["iteration", "pose", "total"],
                     [(v, v) for v in trace])
    print(f"fit {len(gt.objects)} objects, final objective {trace[-1]:.6g} -> {args.out}")
    return 0


def cmd_resolve(args, config) -> int:
    cfg = _optim_config(args, config)
    db = _load_db(args.db)
    scene = _load_scene(args.scene)
    anchor = _opt(args, config, "anchor", 1.0)
    resolved, trace = resolve_collisions(db, scene, cfg, anchor_term_weight=anchor)
    save_scene(args.out, resolved)
    if args.trace:
        _write_trace(args.trace, ["iteration", "collision", "anchor", "total"], trace)
    print(f"resolved scene, final collision loss {trace[-1][0]:.6g} -> {args.out}")
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


def cmd_evaluate(args, config) -> int:
    db = _load_db(args.db)
    preds = _scene_paths(args.pred)
    gts = _scene_paths(args.gt)
    if len(preds) != len(gts):
        raise DataError(
            f"{args.pred} has {len(preds)} scenes but {args.gt} has {len(gts)}"
        )
    res = _opt(args, config, "res", 128)
    thresh = _opt(args, config, "thresh", 0.25)
    report: dict = {"metric": args.metric, "scenes": len(preds)}

    if args.metric == "iou":
        per_class: dict[str, list[float]] = {}
        rel_class: dict[str, list[float]] = {}
        for pp, gp in zip(preds, gts):
            rep = relative_iou(_load_scene(pp), _load_scene(gp), db, resolution=res)
            for cls, v in rep.per_class.items():
                per_class.setdefault(cls, []).append(v)
            for cls, v in (rep.relative_per_class or {}).items():
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
        pred_boxes, gt_boxes = [], []
        for pp, gp in zip(preds, gts):
            for o in _load_scene(pp).objects:
                pred_boxes.append(DetectionBox(o.class_name, o.pose))
            for o in _load_scene(gp).objects:
                gt_boxes.append(DetectionBox(o.class_name, o.pose))
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
            miv, cnt = miv_and_collisions(_load_scene(pp), db)
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
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.asarray(verts, dtype="<f4").tobytes())


def cmd_export(args, config) -> int:
    db = _load_db(args.db)
    scene = _load_scene(args.scene)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "sdfg":
        res = _opt(args, config, "res", 128)
        bounds = _scene_bounds([scene], db)
        origin, dims, spacing = scene_grid(bounds, res)
        occ = np.zeros(dims, dtype=bool)
        for o in scene.objects:
            mesh = db.entry(class_id(db, o.class_name), o.exemplar).mesh
            occ |= voxelize_occupancy(mesh, o.pose, origin, dims, spacing)
        write_sdfg(out / "scene.sdfg", SdfGrid(occ.astype(np.float64), origin, spacing))
        print(f"wrote occupancy {dims} -> {out / 'scene.sdfg'}")
        return 0
    for k, o in enumerate(scene.objects):
        entry = db.entry(class_id(db, o.class_name), o.exemplar)
        stem = out / f"object_{k:03d}"
        if args.format == "obj":
            posed = TriMesh(apply_pose(o.pose, entry.mesh.vertices), entry.mesh.triangles)
            save_obj(f"{stem}.obj", posed)
        elif args.format == "ply":
            _write_ply(f"{stem}.ply", apply_pose(o.pose, entry.mesh.vertices))
        elif args.format == "pts":
            pts = apply_pose(o.pose, entry.points)
            with open(f"{stem}.pts", "wb") as fh:
                fh.write(struct.pack("<I", len(pts)))
                fh.write(np.asarray(pts, dtype="<f4").tobytes())
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
    p.add_argument("--warmup", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--freeze", action="append", choices=["rot", "scale", "trans"])
    p.add_argument("--perturb-rot", type=float, default=10.0, help="degrees")
    p.add_argument("--perturb-trans", type=float, default=0.1)
    p.add_argument("--perturb-scale", type=float, default=0.1)
    p.set_defaults(func=cmd_fit_pose)

    p = sub.add_parser("resolve", help="push interpenetrating objects apart")
    p.add_argument("--db", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="loss trace CSV")
    p.add_argument("--iters", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--warmup", type=int)
    p.add_argument("--seed", type=int,
                   help="accepted and unused: resolve draws no random numbers")
    p.add_argument("--anchor", type=float, help="anchor term weight")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("evaluate", help="compare predicted scenes against ground truth")
    p.add_argument("--db", required=True)
    p.add_argument("--pred", required=True, help="scene file or directory")
    p.add_argument("--gt", required=True, help="scene file or directory")
    p.add_argument("--metric", required=True, choices=["iou", "map", "miv"])
    p.add_argument("--res", type=int, help="voxel resolution")
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
        config = load_config(args.config) if args.config else {}
        return args.func(args, config)
    except _UsageError as e:
        print(f"shapescene: error: {e}", file=sys.stderr)
        return 1
    except ShapeSceneError as e:
        print(f"shapescene: error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"shapescene: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
