"""Exception hierarchy shared by all shapescene modules, and the text-file
reader that reports bytes that are not UTF-8 as one of its data errors.

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


def read_text(path) -> str:
    """The text of a UTF-8 file; MalformedFile naming the file if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise MalformedFile(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
