"""Exception hierarchy shared by all shapescene modules.

Every error that stems from bad input data derives from DataError so the
CLI can map it to a distinct exit code.
"""


class ShapeSceneError(Exception):
    """Base class for all shapescene errors."""


class DataError(ShapeSceneError):
    """Invalid or inconsistent input data."""


class DegenerateMatrix(DataError):
    """Nearest rotation is not unique (two smallest singular values ~ 0)."""


class DegenerateMesh(DataError):
    """Mesh with a vanishing axis extent or zero total surface area."""


class MalformedFile(DataError, ValueError):
    """Input file that does not parse or holds values its format forbids."""


class NonWatertight(DataError):
    """Parity ray casts disagree on too many voxels."""


class OutOfBounds(DataError):
    """Sample point lacks a complete 8-corner interpolation stencil."""


class InsufficientShapes(DataError):
    """A class has fewer member shapes than requested exemplars."""


class UnknownClass(DataError):
    """Class id not present in the shape database."""


class UnknownExemplar(DataError):
    """Exemplar index outside the shape database's per-class range."""


class MismatchedLengths(DataError):
    """Parallel per-object lists have different lengths."""


class ZeroScale(DataError):
    """Pose scale too small to invert."""


class PlacementFailure(DataError):
    """Rejection sampling failed to place an object without overlap."""


class NonFinite(ShapeSceneError):
    """Objective became non-finite during optimization."""


class EmptyScenes(DataError):
    """Both scenes rasterize to empty occupancy."""


class DegenerateConfiguration(DataError):
    """Point configuration too flat for Procrustes alignment."""
