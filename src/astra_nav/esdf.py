"""Occupancy grids, exact Euclidean distance transforms, and masked signed fields.

Every grid is a `Grid`: values, resolution and origin. The dtype says what
it holds: boolean values are occupancy (True = occupied) or a corridor mask,
float values are a field in meters (signed ESDF, unsigned distance, masked
ESDF). Only occupancy may be 3-D, values[z, row, col]; `compress_grid`
flattens it to 2-D. Grid files follow the same split: OCC2 for occupancy,
ESDF for a field. Distance transforms treat any nonzero value as occupied,
so a 0/1 integer grid gives the same field as the boolean one.

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

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import AstraError, GeometryMismatchError
from .geom import PoseTrajectory

log = logging.getLogger(__name__)

_NO_TARGET = 1.0e7  # rows/cols placeholder well above any real grid extent


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


def _nearest_along_rows(target: np.ndarray) -> np.ndarray:
    """Per column, row distance (in cells) to the nearest True in that column."""
    h, w = target.shape
    dist = np.empty((h, w))
    run = np.full(w, _NO_TARGET)
    for r in range(h):
        run = np.where(target[r], 0.0, run + 1.0)
        dist[r] = run
    run = np.full(w, _NO_TARGET)
    for r in range(h - 1, -1, -1):
        run = np.where(target[r], 0.0, run + 1.0)
        np.minimum(dist[r], run, out=dist[r])
    return dist


def _envelope_1d(f: np.ndarray) -> np.ndarray:
    """1D squared-distance transform d[i] = min_j f[j] + (i-j)^2.

    Lower envelope of parabolas; exact for integer-valued f.
    """
    n = f.shape[0]
    d = np.empty(n)
    v = np.zeros(n, dtype=np.intp)
    z = np.empty(n + 1)
    z[0], z[1] = -np.inf, np.inf
    k = 0
    for q in range(1, n):
        s = ((f[q] + q * q) - (f[v[k]] + v[k] * v[k])) / (2 * q - 2 * v[k])
        while s <= z[k]:
            k -= 1
            s = ((f[q] + q * q) - (f[v[k]] + v[k] * v[k])) / (2 * q - 2 * v[k])
        k += 1
        v[k] = q
        z[k] = s
        z[k + 1] = np.inf
    k = 0
    for q in range(n):
        while z[k + 1] < q:
            k += 1
        d[q] = (q - v[k]) ** 2 + f[v[k]]
    return d


def edt_squared(map2d: Grid, target: str = "occupied") -> np.ndarray:
    """Exact squared cell distance from every cell to the nearest target-class cell.

    Results are exact integers (as int64). If the grid has no cell of the
    target class, every entry is the squared diagonal width^2 + height^2.
    """
    if target not in ("occupied", "free"):
        raise ValueError("target must be 'occupied' or 'free'")
    occupied = map2d.values != 0
    mask = occupied if target == "occupied" else ~occupied
    h, w = mask.shape
    if not mask.any():
        return np.full((h, w), w * w + h * h, dtype=np.int64)
    col_dist = _nearest_along_rows(mask)
    sq = col_dist * col_dist
    out = np.empty((h, w))
    for r in range(h):
        out[r] = _envelope_1d(sq[r])
    return out.astype(np.int64)


def edt(map2d: Grid, target: str = "occupied") -> np.ndarray:
    """Exact Euclidean distance (meters) from every cell to the nearest target cell."""
    return np.sqrt(edt_squared(map2d, target).astype(float)) * map2d.resolution


def signed_esdf(map2d: Grid) -> Grid:
    """Signed field: +distance-to-occupied on free cells, -distance-to-free on occupied."""
    d_occ = edt(map2d, "occupied")
    d_free = edt(map2d, "free")
    values = np.where(map2d.values, -d_free, d_occ)
    return Grid(values, map2d.resolution, map2d.origin)


def _cell_centers(shape: tuple[int, int], resolution: float, origin) -> np.ndarray:
    h, w = shape
    xs = origin[0] + np.arange(w) * resolution
    ys = origin[1] + np.arange(h) * resolution
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def make_mask(gt_poses: PoseTrajectory, geometry: Grid, dilation_radius: float) -> Grid:
    """Mark every cell whose center lies within dilation_radius of the trajectory polyline."""
    if dilation_radius < 0:
        raise ValueError("dilation radius must be >= 0")
    shape = geometry.values.shape[-2:]
    res, origin = geometry.resolution, geometry.origin
    pts = np.asarray([[p.x, p.y] for p in gt_poses.poses]) if len(gt_poses) else np.zeros((0, 2))
    mask = np.zeros(shape, dtype=bool)
    if len(pts) == 0:
        return Grid(mask, res, origin)
    centers = _cell_centers(shape, res, origin)
    min_d = np.full(centers.shape[0], np.inf)
    if len(pts) == 1:
        min_d = np.hypot(*(centers - pts[0]).T)
    else:
        for a, b in zip(pts[:-1], pts[1:]):
            ab = b - a
            denom = float(ab @ ab)
            if denom == 0.0:
                d = np.hypot(*(centers - a).T)
            else:
                t = np.clip((centers - a) @ ab / denom, 0.0, 1.0)
                proj = a + t[:, None] * ab
                d = np.hypot(*(centers - proj).T)
            np.minimum(min_d, d, out=min_d)
    mask = (min_d <= dilation_radius).reshape(shape)
    if not mask.any():
        lo = (origin[0] - res / 2, origin[1] - res / 2)
        hi = (origin[0] + (shape[1] - 0.5) * res, origin[1] + (shape[0] - 0.5) * res)
        outside = (
            (pts[:, 0] < lo[0]) | (pts[:, 0] > hi[0]) | (pts[:, 1] < lo[1]) | (pts[:, 1] > hi[1])
        ).all()
        if outside:
            log.warning("trajectory lies entirely outside the grid; mask is empty")
    return Grid(mask, res, origin)


def mask_esdf(phi: Grid, mask: Grid, alpha: float) -> Grid:
    """Attenuate the field inside the corridor: phi * (1 - alpha) there, phi elsewhere."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not same_geometry(phi, mask):
        raise GeometryMismatchError("field and mask geometry differ")
    values = phi.values * (1.0 - alpha * mask.values)
    return Grid(values, phi.resolution, phi.origin)


def _bilinear(values: np.ndarray, resolution: float, origin, pts: np.ndarray):
    """Shared bilinear kernel.

    Returns (sampled values, d/dx, d/dy). Points outside the cell-center
    lattice clamp to the border; clamped coordinates carry zero gradient in
    the clamped direction.
    """
    h, w = values.shape
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    gx = (pts[:, 0] - origin[0]) / resolution
    gy = (pts[:, 1] - origin[1]) / resolution
    cx = np.clip(gx, 0.0, w - 1.0)
    cy = np.clip(gy, 0.0, h - 1.0)
    ix = np.minimum(np.floor(cx).astype(np.intp), max(w - 2, 0))
    iy = np.minimum(np.floor(cy).astype(np.intp), max(h - 2, 0))
    u = cx - ix
    v = cy - iy
    jx = np.minimum(ix + 1, w - 1)
    jy = np.minimum(iy + 1, h - 1)
    f00 = values[iy, ix]
    f10 = values[iy, jx]
    f01 = values[jy, ix]
    f11 = values[jy, jx]
    out = f00 * (1 - u) * (1 - v) + f10 * u * (1 - v) + f01 * (1 - u) * v + f11 * u * v
    du = (f10 - f00) * (1 - v) + (f11 - f01) * v
    dv = (f01 - f00) * (1 - u) + (f11 - f10) * u
    inside_x = (gx == cx).astype(float)
    inside_y = (gy == cy).astype(float)
    return out, du * inside_x / resolution, dv * inside_y / resolution


def sample_bilinear(phi: Grid, points):
    """Bilinearly interpolate the field at world points (meters)."""
    return _bilinear(phi.values, phi.resolution, phi.origin, points)[0]


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
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as e:
        raise GridParseError(f"{path}: cannot read grid file: {e}") from e
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
