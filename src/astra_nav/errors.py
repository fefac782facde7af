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
    """Whether an input value is a finite real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
