"""Exception hierarchy shared by all shapescene modules, and the readers of
text and JSON that report bad bytes, bad JSON and mistyped values as one of
its data errors.

Every error that stems from bad input data derives from DataError so the
CLI can map it to a distinct exit code.
"""
import json


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


def read_text(path) -> str:
    """The text of a UTF-8 file; MalformedFile naming the file if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise MalformedFile(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def parse_json(text: str, what) -> dict:
    """The JSON object `text` holds; MalformedFile naming `what` if it holds none.

    Nesting deeper than the interpreter's recursion limit is malformed too.
    """
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise MalformedFile(f"{what}: invalid JSON ({e})") from None
    if not isinstance(value, dict):
        raise MalformedFile(f"{what}: not a JSON object")
    return value


def of_type(value, kind: type, what: str):
    """`value` if it is a `kind`, as a float if `kind` is float and `value` any
    number; MalformedFile naming `what` if not.

    JSON true/false load as bool, a subclass of int: never a number here.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise MalformedFile(f"{what} must be {kind.__name__}, not {type(value).__name__}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise MalformedFile(f"{what} is an integer past the float range") from None
