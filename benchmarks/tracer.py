"""In-memory span tracer for the benchmark's traced run.

`Tracer.install()` wraps every public function of the shapescene layer modules
and rebinds each wrapped name in every shapescene module that imported it, so
calls made through `from .mesh import points_inside` are seen too.
`Tracer.uninstall()` puts every original back.

Each CLI command is a root span (`Tracer.command`) tagged with the item id; each
wrapped call is a child span recording its name, start, end and parent. Spans
stay in memory and are summarised once, when the run ends. Work counters are
derived from call arguments and results at the same boundaries; they are
computed from array shapes, so they repeat exactly for the same inputs.
"""
from __future__ import annotations

import importlib
import inspect
import os
import sys
import time

import numpy as np

# Layer modules whose public functions are traced; the names are the layers.
LAYERS = ("mesh", "sdf", "shapedb", "scene", "geom", "losses", "collision",
          "optim", "metrics")

# CLI commands reported as per-command wall time.
COMMANDS = ("build-db", "gen-scenes", "fit-pose", "resolve", "evaluate")

# Span record fields (a list per span keeps the hot path cheap).
NAME, ITEM, START, END, PARENT = range(5)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _parent_name(tracer, rec) -> str:
    return tracer.spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else ""


def _points_inside(t, args, kwargs, result, rec):
    n = len(result[0])
    t.add("mesh.points_inside.pairs", n * len(_arg(args, kwargs, 0, "mesh").triangles) * 3)
    if _parent_name(t, rec) == "mesh.voxelize_occupancy":
        t.add("mesh.voxelize_occupancy.voxels", n)


def _point_triangle_distance(t, args, kwargs, result, rec):
    t.add("mesh.point_triangle_distance.pairs",
          len(result) * len(_arg(args, kwargs, 1, "mesh").triangles))


def _voxelize_occupancy(t, args, kwargs, result, rec):
    if _parent_name(t, rec) == "scene.generate_scene":
        t.add("scene.generate_scene.attempts", 1)


def _mesh_to_sdf(t, args, kwargs, result, rec):
    t.add("sdf.mesh_to_sdf.voxels", result.values.size)


def _sample_zero_outside(t, args, kwargs, result, rec):
    t.add("sdf.sample_zero_outside.points", len(result[0]))
    if _parent_name(t, rec).startswith("collision."):
        t.add("collision.pairs_sampled", 1)
        if np.any(result[0]):
            t.add("collision.pairs_hit", 1)


def _sdfg_io(t, args, kwargs, result, rec):
    t.add("sdf.io_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _kmeans_pp(t, args, kwargs, result, rec):
    data = _arg(args, kwargs, 0, "data")
    k = _arg(args, kwargs, 1, "k")
    n, d = data.shape
    # The Lloyd step broadcasts an (n, k, d) float64 difference array.
    t.peak("shapedb.kmeans_pp.buffer_bytes", n * k * d * 8)


def _generate_scene(t, args, kwargs, result, rec):
    t.add("scene.generate_scene.placed", len(result.objects))


def _optimizer(key, cfg_pos):
    def hook(t, args, kwargs, result, rec):
        iterations = len(result[1]) - 1
        t.add(f"optim.{key}.iterations", iterations)
        if iterations == _arg(args, kwargs, cfg_pos, "cfg").iterations:
            t.add("optim.budget_stops", 1)
    return hook


HOOKS = {
    "mesh.points_inside": _points_inside,
    "mesh.point_triangle_distance": _point_triangle_distance,
    "mesh.voxelize_occupancy": _voxelize_occupancy,
    "sdf.mesh_to_sdf": _mesh_to_sdf,
    "sdf.sample_zero_outside": _sample_zero_outside,
    "sdf.read_sdfg": _sdfg_io,
    "sdf.write_sdfg": _sdfg_io,
    "shapedb.kmeans_pp": _kmeans_pp,
    "scene.generate_scene": _generate_scene,
    "optim.fit_poses": _optimizer("fit_poses", 3),
    "optim.resolve_collisions": _optimizer("resolve_collisions", 2),
}


class Tracer:
    """Records spans for wrapped shapescene calls; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.item = None
        self._patched: list[tuple[object, str, object]] = []

    # -- counters -----------------------------------------------------------
    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def peak(self, key: str, n: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), int(n))

    # -- spans --------------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [name, self.item, time.perf_counter_ns(), 0,
               self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self.stack.pop()

    def command(self, main, argv: list[str], item) -> int:
        """Run one CLI command as a root span tagged with `item`."""
        self.item = item
        rec = self._open(f"cli.{argv[0]}")
        try:
            return main(argv)
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hook(self, args, kwargs, result, rec)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        importlib.import_module("shapescene.cli")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"shapescene.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "shapescene" and not modname.startswith("shapescene."):
                continue
            for name, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, name, entry[1])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> bool:
        """Restore every wrapped name; True when all originals are back."""
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        restored = all(getattr(mod, name) is obj for mod, name, obj in self._patched)
        self._patched.clear()
        return restored

    # -- summary ------------------------------------------------------------
    def self_times_ns(self) -> list[int]:
        """Per-span duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[int, int]]] = {}
        for rec in self.spans:
            if rec[PARENT] >= 0:
                children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
        out = []
        for idx, rec in enumerate(self.spans):
            covered, reach = 0, rec[START]
            for lo, hi in sorted(children.get(idx, ())):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(rec[END] - rec[START] - covered)
        return out

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: seconds are totals over the traced spans."""
        calls: dict[str, int] = {}
        total: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for rec, own in zip(self.spans, self.self_times_ns()):
            name = rec[NAME]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + rec[END] - rec[START]
            self_ns[name] = self_ns.get(name, 0) + own

        def s(ns):
            return ns / 1e9

        m: dict[str, float] = {}
        for cmd in COMMANDS:
            m[f"cli.{cmd}.s"] = s(total.get(f"cli.{cmd}", 0))
        m["cli.self_s"] = s(sum(v for k, v in self_ns.items() if k.startswith("cli.")))
        for layer in LAYERS:
            m[f"{layer}.self_s"] = s(sum(v for k, v in self_ns.items()
                                         if k.startswith(layer + ".")))
        for fn in ("mesh.point_triangle_distance", "mesh.points_inside",
                   "sdf.mesh_to_sdf", "sdf.sample_zero_outside", "shapedb.kmeans_pp",
                   "shapedb.load_database", "geom.project_to_so3",
                   "geom.chain_rotation_grad", "geom.so3_projection_jacobian",
                   "losses.pose_loss_rt_grads", "collision.collision_gradient",
                   "optim.fit_poses", "optim.resolve_collisions", "metrics.oriented_box_iou"):
            m[f"{fn}.self_s"] = s(self_ns.get(fn, 0))
        for fn in ("mesh.voxelize_occupancy", "sdf.mesh_to_sdf", "sdf.sample_zero_outside",
                   "shapedb.assign_exemplar", "geom.project_to_so3",
                   "geom.chain_rotation_grad", "losses.pose_loss_rt_grads",
                   "collision.collision_gradient", "collision.collision_loss_total",
                   "metrics.oriented_box_iou"):
            m[f"{fn}.calls"] = calls.get(fn, 0)
        for fn in ("scene.generate_scene", "metrics.relative_iou", "metrics.map3d",
                   "metrics.miv_and_collisions"):
            m[f"{fn}.total_s"] = s(total.get(fn, 0))
        m["sdf.io_s"] = s(total.get("sdf.read_sdfg", 0) + total.get("sdf.write_sdfg", 0))
        for key in ("mesh.point_triangle_distance.pairs", "mesh.points_inside.pairs",
                    "mesh.voxelize_occupancy.voxels", "sdf.mesh_to_sdf.voxels",
                    "sdf.sample_zero_outside.points", "sdf.io_bytes",
                    "shapedb.kmeans_pp.buffer_bytes", "scene.generate_scene.attempts",
                    "scene.generate_scene.placed", "collision.pairs_sampled",
                    "collision.pairs_hit", "optim.fit_poses.iterations",
                    "optim.resolve_collisions.iterations", "optim.budget_stops"):
            m[key] = self.counts.get(key, 0)
        attempts = m["scene.generate_scene.attempts"]
        m["scene.generate_scene.accept_ratio"] = (
            m["scene.generate_scene.placed"] / attempts if attempts else 0.0)
        sampled = m["collision.pairs_sampled"]
        m["collision.hit_ratio"] = m["collision.pairs_hit"] / sampled if sampled else 0.0
        m["trace.attributed_s"] = m["cli.self_s"] + sum(m[f"{layer}.self_s"]
                                                        for layer in LAYERS)
        return m
