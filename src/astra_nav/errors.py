"""Shared exception hierarchy and input-file helpers.

Every domain error raised by this package derives from AstraError so
callers (and the CLI) can separate expected failures from bugs. The helpers
read and check values that arrive from outside the program.
"""

import json
import math
import numbers


class AstraError(Exception):
    """Base class for all domain errors raised by astra_nav."""


class MapError(AstraError):
    """Structural problem in a topological-semantic map or its file."""


class GeometryMismatchError(AstraError):
    """Two grids that must share shape/resolution/origin do not."""


class UnknownConfigKeyError(AstraError):
    """A configuration mapping contained a key nobody recognizes."""

    def __init__(self, key: str, where: str = "config"):
        super().__init__(f"unknown {where} key: {key!r}")
        self.key = key


class InputFileError(AstraError):
    """An input file is missing, unreadable or not valid JSON."""


def read_text(path, error: type[AstraError]) -> str:
    """The text of the file at `path`; raise `error` naming the file when it
    cannot be read."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise error(f"{path}: cannot read file: {e}") from e


def read_json(path, error: type[AstraError]):
    """Parse the JSON file at `path`; raise `error` naming the file when it cannot
    be read or parsed."""
    try:
        return json.loads(read_text(path, error))
    except json.JSONDecodeError as e:
        raise error(f"{path}: invalid JSON at line {e.lineno} col {e.colno}") from e


def is_finite_number(value) -> bool:
    """Whether an input value is a finite real number; a bool is not one, nor
    an integer too large for a float."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def is_finite_triple(value) -> bool:
    """Whether an input value is a list of three finite numbers, the JSON form
    of a pose [x, y, theta] and of a sensor increment [dx, dy, dtheta]."""
    return isinstance(value, list) and len(value) == 3 and all(map(is_finite_number, value))


def check_landmark_text(category, attributes) -> None:
    """Raise ValueError unless a landmark's category is a non-empty string and
    its visual attributes an object with string values, as the matching reads
    them in a map file and in an extractor response."""
    if not isinstance(category, str) or not category.strip():
        raise ValueError(f"a landmark category must be a non-empty string, got {category!r}")
    if not isinstance(attributes, dict) or not all(isinstance(v, str) for v in attributes.values()):
        raise ValueError(f"visual_attributes must be an object with string values, got {attributes!r}")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# The rules of `check_fields`, by the words its messages use.
_RULES = {
    "an integer >= 1": lambda v: _is_integer(v) and v >= 1,
    "an integer >= 0": lambda v: _is_integer(v) and v >= 0,
    "positive and finite": lambda v: is_finite_number(v) and v > 0,
    "finite and >= 0": lambda v: is_finite_number(v) and v >= 0,
    "within [0, 1]": lambda v: is_finite_number(v) and 0 <= v <= 1,
    "true or false": lambda v: isinstance(v, bool),
    "a list of integers >= 1": lambda v: isinstance(v, (list, tuple))
    and all(_is_integer(h) and h >= 1 for h in v),
}


def check_fields(obj, error: type[AstraError], rule: str, *names) -> None:
    """Raise `error` naming the first of the fields `names` of `obj` whose value
    breaks `rule`, one of the keys of `_RULES`."""
    ok = _RULES[rule]
    for name in names:
        value = getattr(obj, name)
        if not ok(value):
            raise error(f"{name} must be {rule}, got {value!r}")
