"""shapescene: multi-object 3D scene reconstruction toolkit.

Shape-exemplar databases over voxelized SDFs, 9-DoF pose losses with
SVD-based SO(3) projection, a differentiable collision energy, keypoint
heatmap machinery, synthetic scene generation, gradient-based pose
optimization, and 3D evaluation metrics.
"""

from .collision import (
    SceneObject,
    collision_energy_single,
    collision_gradient,
    collision_loss_total,
    geman_mcclure,
    relative_transform,
)
from .detect import (
    Detection,
    extract_peaks,
    focal_loss,
    focal_loss_grad,
    gaussian_sigma,
    make_targets,
)
from .geom import (
    Pose9DoF,
    Rotation,
    apply_pose,
    geodesic_distance,
    project_to_so3,
)
from .losses import (
    hard_selection_loss,
    pose_loss_rt,
    scale_loss,
    soft_selection_loss,
)
from .mesh import TriMesh, canonicalize_mesh, load_obj, sample_surface_points, save_obj
from .metrics import (
    DetectionBox,
    IoUReport,
    map3d,
    miv_and_collisions,
    oriented_box_iou,
    relative_iou,
)
from .optim import OptimConfig, fit_poses, resolve_collisions, scene_to_objects
from .scene import (
    PlacedObject,
    Scene,
    generate_scene,
    load_scene,
    perturb_pose,
    save_scene,
)
from .sdf import SdfGrid, clamp_interior, mesh_to_sdf, read_sdfg, write_sdfg
from .shapedb import (
    ShapeDatabase,
    ShapeEntry,
    assign_exemplar,
    build_database,
    hard_label,
    load_database,
    save_database,
    soft_label,
)

__version__ = "0.1.0"
