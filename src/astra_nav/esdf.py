"""Occupancy grids, exact Euclidean distance transforms, and masked signed fields.

Every grid is a `Grid`: values, resolution and origin. The dtype says what
it holds: boolean values are occupancy (True = occupied) or a corridor mask,
float values are a field in meters (signed ESDF, unsigned distance, masked
ESDF). Only occupancy may be 3-D, values[z, row, col]; `compress_grid`
flattens it to 2-D. Grid files follow the same split: OCC2 for occupancy,
ESDF for a field. Distance transforms treat any nonzero value as occupied,
so a 0/1 integer grid gives the same field as the boolean one.

The exact transform runs in two whole-array passes on integers: int32, or
int64 when 2 * (h + w)^2 reaches 2^31. The column pass is phase 1 of
Meijster, Roerdink & Hesselink's linear-time EDT (2000): each target's row
is lifted by h + w (0 elsewhere), and a running maximum down each column,
taken by doubling shifts of whole rows, gives the row of the nearest target
at or above each cell; the same on the row-reversed mask gives the one at
or below. The smaller gap, clamped at h + w, squared, is sq. The clamp is
the sentinel of a column without a target: (h + w)^2 exceeds every real
squared distance, so it loses every minimum. A row pass then sweeps column
offsets k = 1, 2, ..., lowering each entry (r, c) with sq[r, c - k] + k^2
and sq[r, c + k] + k^2, and stops once k reaches the width or k^2 the
largest entry: a column k or more away adds at least k^2, so it cannot
lower any entry. It runs on the transpose, so that each shift is a block of
whole rows. Every entry stays below 2 * (h + w)^2, so the integers never
overflow, and every squared distance is exact up to the one conversion to
float before the root. The cost is O(h * w) memory, O(h * w * log h) for
the column pass and O(h * w) per offset up to the largest distance in
cells (at most the width), so grids where every cell lies near a target
finish in a few passes.

Grid geometry convention (frozen, tested): a 2D grid stores values[row, col]
with the center of cell (row r, col c) at world point

    (origin_x + c * resolution, origin_y + r * resolution)

so world x maps to columns and world y to rows. Bilinear sampling uses the
corner layout f(u, v) = f00*(1-u)(1-v) + f10*u(1-v) + f01*(1-u)v + f11*u*v
where u, v are the fractional offsets inside the cell square whose low
corner is (ix, iy), f10 is the +x neighbor and f01 the +y neighbor.

The signed field is positive on free cells (distance to the nearest
occupied cell) and negative on occupied cells (minus the distance to the
nearest free cell), so occupied cells sit at or below -resolution. When a
grid has no cell of the queried class, every distance is capped at the
grid diagonal resolution*hypot(width, height).
"""

from __future__ import annotations

import functools
import logging
import math
import mmap
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AstraError, GeometryMismatchError, read_text
from .geom import PoseTrajectory

log = logging.getLogger(__name__)


@dataclass
class Grid:
    """values[row, col] on the lattice above; values[z, row, col] for 3-D occupancy.

    Boolean values stay boolean; any other values are stored as floats.
    """

    values: np.ndarray
    resolution: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        values = np.asarray(self.values)
        self.values = values if values.dtype == bool else np.asarray(values, dtype=float)
        ndims = (2, 3) if values.dtype == bool else (2,)
        if values.ndim not in ndims or min(values.shape) < 1:
            raise ValueError("grid values must be 2-D, or 3-D occupancy, with all dims >= 1")
        if not self.resolution > 0:
            raise ValueError("resolution must be positive")
        self.origin = (float(self.origin[0]), float(self.origin[1]))

    @property
    def height(self) -> int:
        return self.values.shape[-2]

    @property
    def width(self) -> int:
        return self.values.shape[-1]


# The benchmark builds its occupancy grids under this name.
BinaryMap2D = Grid


def same_geometry(a, b) -> bool:
    return (
        a.values.shape[-2:] == b.values.shape[-2:]
        and a.resolution == b.resolution
        and a.origin == b.origin
    )


def compress_grid(grid: Grid) -> Grid:
    """2-D occupancy of a 2-D or 3-D grid: a cell is occupied iff any voxel in its column is."""
    values = grid.values.reshape(-1, grid.height, grid.width).any(axis=0)
    return Grid(values, grid.resolution, grid.origin)


def edt(map2d: Grid, target: str = "occupied") -> np.ndarray:
    """Exact Euclidean distance (meters) from every cell to the nearest
    target-class cell, by the two passes of the module docstring.
    If the grid has no cell of the target class, every entry is the
    diagonal resolution * hypot(width, height). A 3-D grid raises
    ValueError: `compress_grid` flattens it first."""
    if target not in ("occupied", "free"):
        raise ValueError("target must be 'occupied' or 'free'")
    if map2d.values.ndim != 2:
        raise ValueError(
            f"distance transforms take a 2-D grid, got shape {map2d.values.shape}; "
            "flatten 3-D occupancy with compress_grid first"
        )
    occupied = map2d.values != 0
    mask = occupied if target == "occupied" else ~occupied
    h, w = mask.shape
    if not mask.any():
        return np.full((h, w), math.sqrt(w * w + h * h) * map2d.resolution)
    sentinel = h + w
    dtype = np.int32 if 2 * sentinel * sentinel < 2**31 else np.int64
    lifted = np.arange(sentinel, sentinel + h, dtype=dtype)[:, None]
    gap = _gap_from_above(mask, lifted)
    np.minimum(gap, _gap_from_above(mask[::-1], lifted)[::-1], out=gap)
    np.minimum(gap, sentinel, out=gap)
    gap *= gap
    sq = gap.T.copy()
    out = sq.copy()
    buf = np.empty_like(sq)
    k = 1
    while k < w and k * k < out.max():
        shifted = buf[: w - k]
        np.add(sq[:-k], k * k, out=shifted)
        np.minimum(out[k:], shifted, out=out[k:])
        np.add(sq[k:], k * k, out=shifted)
        np.minimum(out[:-k], shifted, out=out[:-k])
        k += 1
    field = np.ascontiguousarray(out.T, dtype=float)
    np.sqrt(field, out=field)
    field *= map2d.resolution
    return field


def _gap_from_above(mask: np.ndarray, lifted: np.ndarray) -> np.ndarray:
    """Rows from each cell up to the nearest True at or above it in its
    column, or h + w or more where there is none. `lifted` is the column of
    row indices plus h + w, so the running maximum of mask * lifted down
    each column is the nearest such row lifted, and 0 before the first.
    Each shift writes into a second buffer, swapped in after it: written
    over its own input, numpy would first copy the input."""
    a = mask * lifted
    b = np.empty_like(a)
    s = 1
    while s < len(a):
        b[:s] = a[:s]
        np.maximum(a[s:], a[:-s], out=b[s:])
        a, b = b, a
        s *= 2
    np.subtract(lifted, a, out=a)
    return a


def signed_esdf(map2d: Grid) -> Grid:
    """Signed field: +distance-to-occupied on free cells, -distance-to-free on occupied."""
    d_occ = edt(map2d, "occupied")
    d_free = edt(map2d, "free")
    values = np.where(map2d.values, -d_free, d_occ)
    return Grid(values, map2d.resolution, map2d.origin)


class MaskError(AstraError, ValueError):
    """Invalid corridor-mask input: a dilation not finite and >= 0, an alpha outside
    [0, 1] or a non-finite trajectory pose."""


def _cell_box(shape, resolution: float, origin, lo, hi) -> tuple[slice, slice]:
    """Rows and columns whose cell centers can lie in the world box [lo, hi],
    grown by one cell so that rounding cannot drop a cell; NaN bounds give
    the whole grid."""
    size = np.array(shape[::-1])
    first = np.floor((np.asarray(lo) - resolution - origin) / resolution)
    last = np.ceil((np.asarray(hi) + resolution - origin) / resolution)
    col0, row0 = (int(v) for v in np.fmin(np.fmax(first, 0), size))
    col1, row1 = (int(v) for v in np.fmax(np.fmin(last + 1, size), (col0, row0)))
    return slice(row0, row1), slice(col0, col1)


# Segment-cell pairs per block of `make_mask`'s batched pass: its
# (segments, cells, 2) temporaries then hold at most 128 KiB, unless a single
# segment's cells need more.
_MASK_PAIRS = 8192


def make_mask(gt_poses: PoseTrajectory, geometry: Grid, dilation_radius: float) -> Grid:
    """Mark every cell whose center lies within dilation_radius of the trajectory polyline.

    Distances are computed only on the cells that the trajectory's bounding
    box, grown by the radius and one cell, overlaps: no other cell can lie
    within the radius. The segments go through one batched pass, a block of
    segments at a time (at most `_MASK_PAIRS` segment-cell pairs, and never
    less than one segment), and each cell keeps its minimum over the
    segments. A cell's distance to one segment a->b is computed as a
    per-segment pass would: t = clip((c - a) @ ab / (ab @ ab), 0, 1) with
    the same matrix products, one per segment, then hypot(c - (a + t ab)),
    or hypot(c - a) where ab @ ab is 0. The mask thresholds that distance,
    so it keeps every bit of it.
    """
    if not 0 <= dilation_radius < math.inf:
        raise MaskError(f"dilation radius must be finite and >= 0, got {dilation_radius!r}")
    shape = geometry.values.shape[-2:]
    res, origin = geometry.resolution, geometry.origin
    poses = gt_poses.as_array()
    if not np.isfinite(poses).all():
        raise MaskError("trajectory poses must be finite")
    pts = poses[:, :2]
    mask = np.zeros(shape, dtype=bool)
    if len(pts) == 0:
        return Grid(mask, res, origin)
    rows, cols = _cell_box(
        shape, res, origin, pts.min(axis=0) - dilation_radius, pts.max(axis=0) + dilation_radius
    )
    xs = origin[0] + np.arange(cols.start, cols.stop) * res
    ys = origin[1] + np.arange(rows.start, rows.stop) * res
    box = (len(ys), len(xs))
    # cell centers as (x, y) rows, row-major over the box
    centers = np.empty((*box, 2))
    centers[..., 0] = xs
    centers[..., 1] = ys[:, None]
    centers = centers.reshape(-1, 2)
    cx, cy = centers.T
    if len(pts) == 1:
        min_d = np.hypot(*(centers - pts[0]).T)
    else:
        min_d = np.full(len(centers), np.inf)
        seg = pts[1:] - pts[:-1]
        # per segment ab @ ab, and below (c - a) @ ab, as stacked products:
        # numpy multiplies each stacked pair as it would the pair alone
        denom = np.matmul(seg[:, None, :], seg[:, :, None])[:, :, 0]
        # t / inf is 0 for the finite t of a segment whose ab @ ab is 0, and
        # a + 0 ab is a
        denom[denom == 0.0] = np.inf
        per_block = max(1, _MASK_PAIRS // max(len(centers), 1))
        for lo in range(0, len(seg), per_block):
            a, ab, dd = (v[lo : lo + per_block] for v in (pts[:-1], seg, denom))
            rel = np.empty((len(a), len(centers), 2))
            np.subtract(cx, a[:, :1], out=rel[..., 0])
            np.subtract(cy, a[:, 1:], out=rel[..., 1])
            t = np.matmul(rel, ab[:, :, None])[:, :, 0]
            t /= dd
            np.maximum(t, 0.0, out=t)
            np.minimum(t, 1.0, out=t)
            # c - (a + t ab), x and y apart
            off = rel[..., 0]  # rel is read no more
            np.multiply(t, ab[:, :1], out=off)
            off += a[:, :1]
            np.subtract(cx, off, out=off)
            np.multiply(t, ab[:, 1:], out=t)
            t += a[:, 1:]
            np.subtract(cy, t, out=t)
            d = np.hypot(off, t)
            np.minimum(min_d, d.min(axis=0), out=min_d)
    mask[rows, cols] = (min_d <= dilation_radius).reshape(box)
    if not mask.any():
        lo = (origin[0] - res / 2, origin[1] - res / 2)
        hi = (origin[0] + (shape[1] - 0.5) * res, origin[1] + (shape[0] - 0.5) * res)
        outside = (
            (pts[:, 0] < lo[0]) | (pts[:, 0] > hi[0]) | (pts[:, 1] < lo[1]) | (pts[:, 1] > hi[1])
        ).all()
        if outside:
            log.warning("trajectory lies entirely outside the grid; mask is empty")
    return Grid(mask, res, origin)


# The mask of every planning dataset, built or loaded, and `esdf compute`'s default:
# the share of the field removed in the corridor, and its radius in m.
MASK_ALPHA = 0.5
MASK_DILATION = 0.3


def mask_esdf(phi: Grid, mask: Grid, alpha: float, out: np.ndarray | None = None) -> Grid:
    """Attenuate the field inside the corridor: phi * (1 - alpha) there, phi
    elsewhere. The values are written into `out`, a float array of the
    field's shape, when one is given; the returned grid then holds `out`."""
    if not 0.0 <= alpha <= 1.0:
        raise MaskError("alpha must lie in [0, 1]")
    if not same_geometry(phi, mask):
        raise GeometryMismatchError("field and mask geometry differ")
    values = np.multiply(phi.values, 1.0 - alpha * mask.values, out=out)
    return Grid(values, phi.resolution, phi.origin)


class FieldStack(NamedTuple):
    """Fields in one flat array, each field's cells in one contiguous run of
    it (the array may hold more than the fields), with each field's offset
    into it, width (its row stride), resolution and origin (x, y), and per
    axis its largest cell index as a float (`last`) and as an integer
    (`high`, the largest high-corner index) and its largest low-corner index
    as a float (`low`). Origin and the per-axis columns hold x and y on a
    leading axis of 2, as the kernel holds its query points. A single field
    has a scalar offset, width and resolution and (2, 1) columns; a
    stack of B fields has (B, 1) offsets, widths and resolutions and
    (2, B, 1) columns, which broadcast against (2, B, n) query coordinates
    so row i samples field i."""

    flat: np.ndarray
    offset: object
    width: object
    resolution: object
    origin: np.ndarray
    last: np.ndarray
    low: np.ndarray
    high: np.ndarray

    def take(self, rows) -> "FieldStack":
        """The stack of the given fields of a stack of several, reading the
        same flat array."""
        return FieldStack(self.flat, self.offset[rows], self.width[rows], self.resolution[rows],
                          self.origin[:, rows], self.last[:, rows], self.low[:, rows], self.high[:, rows])


def _columns(size: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A `FieldStack`'s last, low and high columns for fields of the given
    (2, ...) integer sizes (width, height)."""
    high = size - 1
    return high.astype(float), np.maximum(high - 1, 0).astype(float), high


@functools.lru_cache(maxsize=64)
def _grid_columns(width: int, height: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_columns` of one field of the given size, built once per size and
    read-only, as every lookup on that field reads them."""
    columns = _columns(np.array([[width], [height]]))
    for a in columns:
        a.setflags(write=False)
    return columns


def _shared_buffer(values: list[np.ndarray]):
    """The flat float array that every one of the 2-D arrays is a
    C-contiguous float view of, and their offsets into it in elements as a
    (B, 1) column, taken from their addresses; None when there is none."""
    buffer = values[0].base
    if not (isinstance(buffer, np.ndarray) and buffer.ndim == 1 and buffer.dtype == float
            and buffer.flags.c_contiguous):
        return None
    if not all(v.base is buffer and v.dtype == float and v.flags.c_contiguous for v in values):
        return None
    start = np.array([v.ctypes.data for v in values]) - buffer.ctypes.data
    offset, rest = np.divmod(start, buffer.itemsize)
    return None if rest.any() else (buffer, offset[:, None])


def field_buffer(cells: int) -> np.ndarray:
    """A flat float array of `cells` entries in an anonymous memory map of
    its own (at least one entry: a map cannot be empty), for fields packed
    back to back as views of it. The map goes back to the system with the
    array. A malloc block of that size would not: once glibc frees one, it
    raises its mmap threshold to the block's size, so later blocks up to
    that size come from the heap, which stays resident."""
    return np.frombuffer(mmap.mmap(-1, 8 * max(cells, 1)), dtype=float)[:cells]


def stack_fields(fields: list[Grid]) -> FieldStack:
    """The given 2-D fields, in order, for a batched lookup. Fields that are
    views of one flat buffer (`_shared_buffer`) are read from it in place;
    any others are copied back to back into one flat array."""
    # per field: height, width, resolution, origin x, origin y
    geometry = np.array([(*f.values.shape, f.resolution, *f.origin) for f in fields])
    size = geometry[:, 1::-1].T.astype(np.intp)[:, :, None]
    values = [f.values for f in fields]
    shared = _shared_buffer(values)
    if shared is None:
        cells = (size[0] * size[1]).ravel()
        shared = np.concatenate([v.ravel() for v in values]), (np.cumsum(cells) - cells)[:, None]
    return FieldStack(
        *shared,
        size[0],
        geometry[:, 2:3],
        geometry[:, 3:].T[:, :, None],
        *_columns(size),
    )


def _one_field(phi: Grid) -> FieldStack:
    """The single 2-D field as a `FieldStack`, without copying its values."""
    (h, w), (ox, oy) = phi.values.shape, phi.origin
    return FieldStack(phi.values.ravel(), 0, w, phi.resolution, np.array([[ox], [oy]]),
                      *_grid_columns(w, h))


def _cell_weights(fields: FieldStack, pts):
    """Index and weight arithmetic of the bilinear kernel at pts[..., :2].

    The x and y coordinates go onto a leading axis of 2, and the low and
    high corners onto another, so each step below is one array operation
    for both axes (and both corners), and each axis stays contiguous.
    Returns the continuous cell coordinates g and their border-clamped
    copies c, each (2, ...); the weights w, (2, 2, ...), with w[0] the
    complements (1 - u, 1 - v) of the fractional offsets and w[1] the
    offsets (u, v); and the corner values f, (2, 2, ...), f[r, s] at the
    y corner r and the x corner s: f[0, 0] = f00, f[0, 1] = f10 (the +x
    neighbor), f[1, 0] = f01 (the +y neighbor), f[1, 1] = f11. The clamp
    is np.minimum(np.maximum(g, 0.0), last): np.clip without np.clip's
    Python-level wrapper. Both keep NaN; a coordinate of -0.0 clamps to
    +0.0, where np.clip gives either sign depending on the array's layout.
    The low corner is clamped as a float and then cast; every index is an
    integer below 2^53, so the float arithmetic is exact.
    """
    flat, offset, width, resolution, origin, last, low, high = fields
    g = np.empty((2, *pts.shape[:-1]))
    np.subtract(pts[..., :2].transpose(-1, *range(pts.ndim - 1)), origin, out=g)
    g /= resolution
    c = np.maximum(g, 0.0)
    np.minimum(c, last, out=c)
    w = np.empty((2, *c.shape))
    low_corner = w[1]
    np.floor(c, out=low_corner)
    np.minimum(low_corner, low, out=low_corner)
    index = np.empty((2, *c.shape), dtype=np.intp)
    index[0] = low_corner
    np.add(index[0], 1, out=index[1])
    np.minimum(index[1], high, out=index[1])
    np.subtract(c, low_corner, out=w[1])
    np.subtract(1.0, w[1], out=w[0])
    rows = index[:, 1] * width
    rows += offset
    f = flat[rows[:, None] + index[None, :, 0]]
    return g, c, w, f


def _interpolate(w, f):
    """f00 (1 - u)(1 - v) + f10 u (1 - v) + f01 (1 - u) v + f11 u v, each
    term multiplied and the terms summed in that order."""
    terms = f * w[:, 0]
    terms *= w[:, 1, None]
    return terms[0, 0] + terms[0, 1] + terms[1, 0] + terms[1, 1]


def _bilinear(fields: FieldStack, pts):
    """Bilinear kernel with gradient.

    Returns (sampled values, d/dx, d/dy). Points outside the cell-center
    lattice clamp to the border; clamped coordinates carry zero gradient in
    the clamped direction.
    """
    g, c, w, f = _cell_weights(fields, pts)
    # d/du = (f10 - f00)(1 - v) + (f11 - f01) v, d/dv = (f01 - f00)(1 - u) + (f11 - f10) u
    along_x = (f[:, 1] - f[:, 0]) * w[:, 1]
    along_y = (f[1] - f[0]) * w[:, 0]
    inside = (g == c).astype(float)
    resolution = fields.resolution
    return (_interpolate(w, f), (along_x[0] + along_x[1]) * inside[0] / resolution,
            (along_y[0] + along_y[1]) * inside[1] / resolution)


class SamplePointError(AstraError, ValueError):
    """A point to sample a field at has a NaN coordinate."""


# Points per kernel pass: the kernel's (2, 2, n) temporaries then stay below
# 128 KiB, above which glibc's malloc maps fresh pages for each one.
_BLOCK = 4095


def sample_bilinear(phi: Grid, points):
    """Bilinearly interpolate the field at world points (meters); values only.

    Points beyond the grid, infinite ones too, read the border; a NaN
    coordinate raises `SamplePointError`, since it has no cell. More than
    `_BLOCK` points are sampled in equal blocks of at most `_BLOCK`; each
    value depends on its point alone, so the blocks give the same values.
    Any (P, 2) layout is read in place, a transposed view of x and y rows
    included, with the same values as a contiguous copy."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    # min propagates NaN, so one reduction finds one
    if math.isnan(pts.min(initial=math.inf)):
        raise SamplePointError("cannot sample a field at a NaN coordinate")
    field = _one_field(phi)
    if len(pts) <= _BLOCK:
        return _interpolate(*_cell_weights(field, pts)[2:])
    blocks = np.array_split(pts, -(-len(pts) // _BLOCK))
    return np.concatenate([_interpolate(*_cell_weights(field, b)[2:]) for b in blocks])


# --- text file formats -------------------------------------------------------

class GridParseError(AstraError):
    """Unreadable or malformed grid file; message carries the file and offending field."""


# header dimension counts per magic: OCC2 is 2-D or 3-D, ESDF is 2-D
_HEADER_DIMS = {"OCC2": (2, 3), "ESDF": (2,)}


def format_grid(grid: Grid) -> str:
    """OCC2 text for boolean occupancy (2-D or 3-D), ESDF text for a float field."""
    if grid.values.dtype == bool:
        magic, cell = "OCC2", lambda v: "1" if v else "0"
    else:
        magic, cell = "ESDF", lambda v: repr(float(v))
    dims = " ".join(map(str, [grid.width, grid.height, *grid.values.shape[:-2]]))
    header = f"{magic} {dims} {grid.resolution!r} {grid.origin[0]!r} {grid.origin[1]!r}"
    rows = grid.values.reshape(-1, grid.width)
    return header + "\n" + "\n".join(" ".join(cell(v) for v in row) for row in rows) + "\n"


def save_grid(grid: Grid, path) -> None:
    """Write the grid as an OCC2 or ESDF text file (see format_grid)."""
    with open(path, "w") as fh:
        fh.write(format_grid(grid))


def _parse_header(tokens: list[str], path) -> tuple[str, list[int], float, tuple[float, float]]:
    magic = tokens[0]
    if magic not in _HEADER_DIMS:
        raise GridParseError(f"{path}: unknown grid magic {magic!r} (line 1, field 1)")
    n_dims = len(tokens) - 4
    if n_dims not in _HEADER_DIMS[magic]:
        want = " or ".join(str(n + 3) for n in _HEADER_DIMS[magic])
        raise GridParseError(f"{path}: {magic} header needs {want} fields, got {len(tokens) - 1}")
    dims = [int(t) for t in tokens[1 : 1 + n_dims]]
    res, ox, oy = (float(t) for t in tokens[1 + n_dims :])
    if min(dims) < 1:
        raise GridParseError(f"{path}: grid dimensions must be >= 1, got {dims} (line 1)")
    if not (0 < res < math.inf and math.isfinite(ox) and math.isfinite(oy)):
        raise GridParseError(f"{path}: resolution must be positive and origin finite (line 1)")
    return magic, dims, res, (ox, oy)


def load_grid(path) -> Grid:
    """Read an OCC2 (boolean occupancy) or ESDF (float field) text file."""
    lines = read_text(path, GridParseError).split("\n")
    if not lines or not lines[0].strip():
        raise GridParseError(f"{path}: empty file (line 1)")
    try:
        magic, dims, res, origin = _parse_header(lines[0].split(), path)
    except ValueError as e:
        raise GridParseError(f"{path}: bad header value (line 1): {e}") from e
    body = " ".join(lines[1:]).split()
    expected = math.prod(dims)
    if len(body) != expected:
        raise GridParseError(f"{path}: expected {expected} cell values, got {len(body)} (line 2+)")
    try:
        flat = np.array([float(t) for t in body])
    except ValueError as e:
        raise GridParseError(f"{path}: bad cell value (line 2+): {e}") from e
    values = flat.reshape(dims[::-1])  # header order is width, height[, depth]
    return Grid(values != 0 if magic == "OCC2" else values, res, origin)


def load_occupancy(path) -> Grid:
    """Read a grid file as 2-D occupancy: a 3-D volume is compressed, an ESDF file rejected."""
    grid = load_grid(path)
    if grid.values.dtype != bool:
        raise GridParseError(f"{path}: expected an OCC2 occupancy grid, got an ESDF field")
    return compress_grid(grid)
