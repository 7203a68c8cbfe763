"""Synthetic scene generation and serialization.

Scenes hold (class, exemplar, pose) triples. Generation places objects
upright on the ground plane z = 0 with random yaw, log-uniform scales and
rejection sampling until the pairwise voxel overlap is zero.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedFile, PlacementFailure, UnknownClass, of_type, parse_json, read_text
from .geom import Pose9DoF, Rotation, apply_pose, rotation_about_axis
from .mesh import voxelize_occupancy
from .shapedb import ShapeDatabase, ShapeEntry

DEFAULT_GROUND_BOUNDS = ((-1.5, 1.5), (-1.5, 1.5))
DEFAULT_SCALE_RANGE = (0.5, 1.5)
GENERATION_CHECK_RESOLUTION = 64
MAX_PLACEMENT_ATTEMPTS = 1000


@dataclass(frozen=True)
class PlacedObject:
    class_name: str
    exemplar: int
    pose: Pose9DoF


@dataclass(frozen=True)
class Scene:
    seed: int
    objects: tuple[PlacedObject, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))


def scene_to_json(scene: Scene) -> str:
    """Serialize to the canonical scene schema with full-precision floats."""
    payload = {
        "seed": scene.seed,
        "objects": [
            {
                "class": o.class_name,
                "exemplar": o.exemplar,
                "R": [float(x) for x in o.pose.r.m.reshape(-1)],  # row-major
                "t": [float(x) for x in o.pose.t],
                "s": [float(x) for x in o.pose.s],
            }
            for o in scene.objects
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _numbers(value, what: str) -> np.ndarray:
    """`value` as a float64 array if it is a (nested) list of JSON numbers;
    MalformedFile naming `what` if not. Booleans and numeric strings, which
    numpy would read as numbers, are not."""
    pending = [of_type(value, list, what)]
    while pending:
        v = pending.pop()
        if isinstance(v, list):
            pending.extend(v)
        else:
            of_type(v, float, what)
    return np.array(value, dtype=np.float64)


def scene_from_json(text: str) -> Scene:
    """Parse the canonical scene schema; MalformedFile if `text` is not one."""
    payload = parse_json(text, "scene")
    try:
        objects = tuple(
            PlacedObject(
                class_name=of_type(o["class"], str, "class"),
                exemplar=of_type(o["exemplar"], int, "exemplar"),  # 1.7 is not index 1
                pose=Pose9DoF(
                    Rotation(_numbers(o["R"], "R").reshape(3, 3)),
                    _numbers(o["t"], "t"),
                    _numbers(o["s"], "s"),
                ),
            )
            for o in of_type(payload["objects"], list, "objects")
        )
        return Scene(seed=of_type(payload["seed"], int, "seed"), objects=objects)
    except MalformedFile:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedFile(f"malformed scene ({type(e).__name__}: {e})") from None


def save_scene(path, scene: Scene) -> None:
    with open(path, "w") as fh:
        fh.write(scene_to_json(scene))


def load_scene(path) -> Scene:
    text = read_text(path)
    try:
        return scene_from_json(text)
    except MalformedFile as e:
        raise MalformedFile(f"{path}: {e}") from None


def scene_grid(bounds, resolution: int) -> tuple[np.ndarray, tuple[int, int, int], float]:
    """Cubic-voxel grid covering axis-aligned `bounds` ((lo, hi) per axis).

    The longest axis gets `resolution` voxels; others get proportionally fewer.
    Returns (origin of voxel (0,0,0)'s center, dims, spacing). MemoryError if
    a boolean grid of dims is past what numpy can address.
    """
    lo = np.array([b[0] for b in bounds], dtype=np.float64)
    hi = np.array([b[1] for b in bounds], dtype=np.float64)
    extent = hi - lo
    spacing = float(extent.max()) / resolution
    dims = tuple(int(np.ceil(e / spacing)) for e in extent)
    if math.prod(dims) > np.iinfo(np.intp).max:  # np.zeros would raise a ValueError
        raise MemoryError(f"a {'x'.join(map(str, dims))} voxel grid is too large to allocate")
    origin = lo + spacing / 2.0
    return origin, dims, spacing


def generate_scene(db: ShapeDatabase, n_objects: int, seed: int) -> Scene:
    """Sample a collision-free scene of upright objects on the ground plane.

    Classes/exemplars uniform, yaw uniform in [0, 2pi), per-axis scales
    log-uniform in DEFAULT_SCALE_RANGE, x/y uniform in DEFAULT_GROUND_BOUNDS,
    z chosen so the posed shape rests on z = 0. Each object gets
    MAX_PLACEMENT_ATTEMPTS draws before PlacementFailure. Deterministic per seed.
    """
    if n_objects < 1:
        raise ValueError("n_objects must be >= 1")
    rng = np.random.default_rng(seed)
    (x0, x1), (y0, y1) = DEFAULT_GROUND_BOUNDS
    log_lo, log_hi = np.log(DEFAULT_SCALE_RANGE[0]), np.log(DEFAULT_SCALE_RANGE[1])
    zmax = 2.0 * DEFAULT_SCALE_RANGE[1]
    check_bounds = ((x0 - 1.5, x1 + 1.5), (y0 - 1.5, y1 + 1.5), (0.0, zmax))
    origin, dims, spacing = scene_grid(check_bounds, GENERATION_CHECK_RESOLUTION)

    placed: list[PlacedObject] = []
    taken = np.zeros(dims, dtype=bool)  # union of the placed objects' voxels
    for _ in range(n_objects):
        for _ in range(MAX_PLACEMENT_ATTEMPTS):
            cls = int(rng.integers(db.class_count))
            exemplar = int(rng.integers(db.k_per_class))
            yaw = float(rng.uniform(0.0, 2.0 * np.pi))
            s = np.exp(rng.uniform(log_lo, log_hi, size=3))
            x = float(rng.uniform(x0, x1))
            y = float(rng.uniform(y0, y1))
            rot = rotation_about_axis(np.array([0.0, 0.0, 1.0]), yaw)
            mesh = db.entry(cls, exemplar).mesh
            pose0 = Pose9DoF(rot, np.array([x, y, 0.0]), s)
            min_z = apply_pose(pose0, mesh.vertices)[:, 2].min()
            pose = Pose9DoF(rot, np.array([x, y, -min_z]), s)

            occ = voxelize_occupancy(mesh, pose, origin, dims, spacing)
            if not np.any(occ & taken):
                placed.append(PlacedObject(db.classes[cls], exemplar, pose))
                taken |= occ
                break
        else:
            raise PlacementFailure(
                f"could not place object {len(placed)} in {MAX_PLACEMENT_ATTEMPTS} attempts"
            )
    return Scene(seed=seed, objects=tuple(placed))


def perturb_pose(
    p: Pose9DoF,
    rot_deg: float,
    trans: float,
    scale_frac: float,
    seed: int,
) -> Pose9DoF:
    """Compose a random-axis rotation of exactly rot_deg degrees, a random
    translation of norm <= trans, and a per-axis scale factor within
    (1 +- scale_frac). Deterministic per seed."""
    if min(rot_deg, trans, scale_frac) < 0:
        raise ValueError("perturbation magnitudes must be >= 0")
    trans, scale_frac = abs(trans), abs(scale_frac)  # rng.uniform rejects a high of -0.0
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-12:
        axis = rng.normal(size=3)
    delta = rotation_about_axis(axis, np.deg2rad(rot_deg))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    t = p.t + direction * rng.uniform(0.0, trans)
    u = rng.uniform(-scale_frac, scale_frac, size=3)
    return Pose9DoF(Rotation(delta.m @ p.r.m), t, p.s * (1.0 + u))


def class_id(db: ShapeDatabase, name: str) -> int:
    try:
        return db.classes.index(name)
    except ValueError:
        raise UnknownClass(f"class {name!r} not in database {db.classes}") from None


def shape_entry(db: ShapeDatabase, o: PlacedObject) -> ShapeEntry:
    """The database entry of a placed object: its class's exemplar o.exemplar."""
    cid = class_id(db, o.class_name)
    return db.entry(cid, o.exemplar)
