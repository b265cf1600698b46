"""Point cloud ingestion, voxelization and synthetic generators.

A raw cloud is an (n, 3) float64 array in source units.  Quantization maps
it onto an integer voxel grid of side 2**depth with a single uniform scale
(max axis extent), so the grid is cubic as the octree requires.  The affine
transform back to source coordinates (origin, scale) travels with the
quantized cloud and ends up in the bitstream header.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ParseError

SYNTH_KINDS = ("uniform", "plane", "sphere", "gaussian_clusters", "lidar_rings")

# fixed plane/sphere geometry for the synthetic generators
_PLANE_COEF = (0.4, -0.3, 0.1)  # z = a*x + b*y + c
_SPHERE_RADIUS = 0.8

# The deepest octree: its sort key and a voxel's key pack 3 bits per level
# into one 64-bit integer, so 21 levels (63 bits) fit.
MAX_DEPTH = 21


@dataclass
class RawPointCloud:
    """Point positions in source units plus a label for provenance."""

    points: np.ndarray  # (n, 3) float64
    source_id: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise InvalidInput("point cloud must be a non-empty (n, 3) array")
        if not np.isfinite(pts).all():
            raise InvalidInput("point cloud contains non-finite coordinates")
        self.points = pts

    def __len__(self):
        return self.points.shape[0]


@dataclass
class QuantizedPointCloud:
    """Deduplicated voxel coordinates at bit depth `depth`.

    Voxels are ordered and deduplicated by one integer key per voxel,
    (x << 2*depth) | (y << depth) | z, whose numeric order is the
    lexicographic order of (x, y, z); so set equality is plain array
    equality.  Dequantization: source ~= origin + scale * voxel.
    """

    depth: int
    voxels: np.ndarray  # (m, 3) int64, sorted, unique, in [0, 2**depth)
    origin: np.ndarray  # (3,) float64
    scale: float
    source_id: str = ""

    def __post_init__(self):
        if not (1 <= self.depth <= MAX_DEPTH):
            raise InvalidInput(f"depth must be in [1, {MAX_DEPTH}], got {self.depth}")
        v = np.asarray(self.voxels, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] == 0:
            raise InvalidInput("voxels must be a non-empty (m, 3) array")
        if v.min() < 0 or v.max() >= (1 << self.depth):
            raise InvalidInput("voxel coordinate outside [0, 2**depth)")
        if not self.scale > 0:
            raise InvalidInput("scale must be positive")
        d = self.depth
        key = np.unique((v[:, 0] << 2 * d) | (v[:, 1] << d) | v[:, 2])
        self.voxels = (key[:, None] >> np.array([2 * d, d, 0])) & ((1 << d) - 1)
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)

    def __len__(self):
        return self.voxels.shape[0]

    def same_voxels(self, other: "QuantizedPointCloud") -> bool:
        """Exact voxel-set equality (depth must agree)."""
        return (
            self.depth == other.depth
            and self.voxels.shape == other.voxels.shape
            and bool(np.array_equal(self.voxels, other.voxels))
        )


def quantize(pc: RawPointCloud, depth: int) -> QuantizedPointCloud:
    """Map a raw cloud onto the integer grid [0, 2**depth)^3.

    origin = per-axis minimum, scale = (max axis extent) / (2**depth - 1).
    Coordinates are rounded half-away-from-zero; duplicates collapse.
    A cloud with zero extent on every axis maps to the single voxel (0,0,0).
    """
    if not isinstance(pc, RawPointCloud):
        pc = RawPointCloud(np.asarray(pc, dtype=np.float64))
    if not (1 <= depth <= MAX_DEPTH):
        raise InvalidInput(f"depth must be in [1, {MAX_DEPTH}], got {depth}")
    pts = pc.points
    origin = pts.min(axis=0)
    with np.errstate(over="ignore"):
        extent = float((pts.max(axis=0) - origin).max())
    if extent == np.inf:
        raise InvalidInput("point cloud extent overflows float64")
    scale = extent / ((1 << depth) - 1) if extent > 0 else 1.0
    return voxelize(pc, depth, origin, scale)


def voxelize(pc: RawPointCloud, depth: int, origin, scale) -> QuantizedPointCloud:
    """The voxels of `pc` on the grid [0, 2**depth)^3 of the frame (origin,
    scale): each point rounds half away from zero on (p - origin) / scale and
    is clipped into the grid; duplicates collapse."""
    with np.errstate(over="ignore"):  # a far point's inf clips to the edge
        grid = np.floor((pc.points - origin) / scale + 0.5)
    np.clip(grid, 0, (1 << depth) - 1, out=grid)  # in float: a far point overflows int64
    return QuantizedPointCloud(depth=depth, voxels=grid.astype(np.int64),
                               origin=origin, scale=scale, source_id=pc.source_id)


def dequantize(qpc: QuantizedPointCloud) -> RawPointCloud:
    """Invert the quantization transform; one point per voxel."""
    pts = qpc.origin[None, :] + qpc.scale * qpc.voxels.astype(np.float64)
    return RawPointCloud(pts, source_id=qpc.source_id)


def synth(kind: str, n: int, seed: int, jitter: float = 0.0) -> RawPointCloud:
    """Deterministic synthetic point clouds.

    kinds: uniform (box [-1,1]^3), plane (z = 0.4x - 0.3y + 0.1 patch),
    sphere (radius 0.8), gaussian_clusters (8 blobs), lidar_rings
    (spinning-scanner stand-in: fixed elevation rings, ground returns).
    `jitter` displaces plane/sphere points off the ideal surface by at most
    `jitter` along the surface normal; without it they sit on the surface
    to float precision.
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    if seed < 0:
        raise InvalidInput("seed must be >= 0")
    if not (np.isfinite(jitter) and jitter >= 0):
        raise InvalidInput(f"jitter {jitter!r} must be finite and >= 0")
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        pts = rng.uniform(-1.0, 1.0, size=(n, 3))
    elif kind == "plane":
        a, b, c = _PLANE_COEF
        xy = rng.uniform(-1.0, 1.0, size=(n, 2))
        z = a * xy[:, 0] + b * xy[:, 1] + c
        pts = np.column_stack([xy, z])
        if jitter > 0:
            normal = np.array([-a, -b, 1.0]) / np.sqrt(1 + a * a + b * b)
            pts = pts + rng.uniform(-jitter, jitter, size=(n, 1)) * normal
    elif kind == "sphere":
        dirs = rng.standard_normal(size=(n, 3))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        dirs /= norms
        radii = np.full(n, _SPHERE_RADIUS)
        if jitter > 0:
            radii = radii + rng.uniform(-jitter, jitter, size=n)
        pts = dirs * radii[:, None]
    elif kind == "gaussian_clusters":
        centers = rng.uniform(-0.7, 0.7, size=(8, 3))
        which = rng.integers(0, 8, size=n)
        pts = centers[which] + 0.12 * rng.standard_normal(size=(n, 3))
    elif kind == "lidar_rings":
        pts = _lidar_rings(n, rng)
    else:
        raise InvalidInput(f"unknown synth kind {kind!r} (choose from {SYNTH_KINDS})")
    return RawPointCloud(pts, source_id=f"synth:{kind}:{n}:{seed}")


def _lidar_rings(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sparse ring-structured returns from a scanner 1 m above a ground plane."""
    rings = 16
    height = 1.0
    max_range = 30.0
    elev = np.deg2rad(np.linspace(-15.0, 2.0, rings))
    ring_of = np.arange(n) % rings
    phi = elev[ring_of]
    theta = rng.uniform(0.0, 2 * np.pi, size=n)
    r = np.where(phi < np.deg2rad(-1.0),
                 np.minimum(height / np.tan(-np.minimum(phi, -1e-6)), max_range),
                 max_range * (0.3 + 0.4 * rng.uniform(size=n)))
    r = r * (1.0 + 0.01 * rng.standard_normal(n))
    cos_phi = np.cos(phi)
    return np.column_stack([r * cos_phi * np.cos(theta),
                            r * cos_phi * np.sin(theta),
                            r * np.sin(phi)])


# ---------------------------------------------------------------------------
# PLY I/O (geometry only; ASCII and binary little-endian)
# ---------------------------------------------------------------------------

_PLY_TYPES = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}


def read_ply(path) -> RawPointCloud:
    """Read x,y,z from an ASCII or binary-little-endian PLY vertex element.

    Extra scalar vertex properties (color, normals, ...) are skipped.
    """
    with open(path, "rb") as f:
        fmt, elements = _parse_ply_header(f)
        body = f.read()
    at = next((i for i, e in enumerate(elements) if e["name"] == "vertex"), None)
    if at is None:
        raise ParseError("PLY has no vertex element")
    vertex, before = elements[at], elements[:at]
    names = [p[0] for p in vertex["props"]]
    if any(p[1] is None for p in vertex["props"]):
        raise ParseError("list property in vertex element is unsupported")
    for axis in ("x", "y", "z"):
        if axis not in names:
            raise ParseError(f"vertex element lacks property {axis!r}")
    count = vertex["count"]

    if fmt == "ascii":
        tokens = body.split()
        pos = 0
        for elem in before:
            pos = _skip_ascii_element(tokens, pos, elem)
        need = len(names) * count
        if pos + need > len(tokens):
            raise ParseError("ASCII PLY body shorter than declared")
        try:
            block = np.array(tokens[pos:pos + need], dtype=np.float64)
        except ValueError:
            raise ParseError("ASCII PLY vertex value is not a number") from None
        pts = block.reshape(count, len(names))[:, [names.index(a) for a in "xyz"]]
    else:
        if any(code is None for elem in before for _, code in elem["props"]):
            raise ParseError("cannot skip binary list properties before vertex element")
        offset = sum(elem["count"] * sum(np.dtype(code).itemsize
                                         for _, code in elem["props"])
                     for elem in before)
        dt = np.dtype([(nm, "<" + code) for nm, code in vertex["props"]])
        if offset + dt.itemsize * count > len(body):
            raise ParseError("binary PLY body shorter than declared")
        rec = np.frombuffer(body, dtype=dt, count=count, offset=offset)
        with np.errstate(invalid="ignore"):  # a NaN axis: RawPointCloud refuses it
            pts = np.column_stack([rec["x"], rec["y"], rec["z"]]).astype(np.float64)

    return RawPointCloud(pts, source_id=str(path))


def _parse_ply_header(f):
    def line():
        raw = f.readline()
        if not raw:
            raise ParseError("unexpected end of PLY header")
        return raw.decode("ascii", errors="replace").strip()

    if line() != "ply":
        raise ParseError("not a PLY file (missing 'ply' magic)")
    fmt = None
    elements = []
    while True:
        ln = line()
        if ln == "end_header":
            break
        parts = ln.split()
        if not parts or parts[0] == "comment" or parts[0] == "obj_info":
            continue
        if parts[0] == "format":
            if len(parts) < 2 or parts[1] not in ("ascii", "binary_little_endian"):
                raise ParseError(f"unsupported PLY format line: {ln!r}")
            fmt = parts[1]
        elif parts[0] == "element":
            if len(parts) != 3:
                raise ParseError(f"malformed element line: {ln!r}")
            if not parts[2].isdigit():
                raise ParseError(f"malformed element count: {ln!r}")
            elements.append({"name": parts[1], "count": int(parts[2]), "props": []})
        elif parts[0] == "property":
            if not elements:
                raise ParseError("property before any element")
            # (name, None) marks a variable-length property
            if len(parts) == 5 and parts[1] == "list":
                prop = (parts[4], None)
            elif len(parts) == 3 and parts[1] in _PLY_TYPES:
                prop = (parts[2], _PLY_TYPES[parts[1]])
            else:
                raise ParseError(f"malformed property line: {ln!r}")
            if prop[0] in (name for name, _ in elements[-1]["props"]):
                raise ParseError(f"repeated property {prop[0]!r}")
            elements[-1]["props"].append(prop)
        else:
            raise ParseError(f"unrecognized header line: {ln!r}")
    if fmt is None:
        raise ParseError("PLY header lacks a format line")
    return fmt, elements


def _skip_ascii_element(tokens, pos, elem):
    has_list = any(code is None for _, code in elem["props"])
    if not has_list:
        return pos + len(elem["props"]) * elem["count"]
    for _ in range(elem["count"]):
        for _, code in elem["props"]:
            if code is None:
                if pos >= len(tokens):
                    raise ParseError("ASCII PLY body shorter than declared")
                if not tokens[pos].isdigit():
                    raise ParseError("ASCII PLY list count is not an integer >= 0")
                pos += 1 + int(tokens[pos])
            else:
                pos += 1
    if pos > len(tokens):
        raise ParseError("ASCII PLY body shorter than declared")
    return pos


def write_ply(path, pc: RawPointCloud, binary: bool = False) -> None:
    """Write geometry as a PLY with double-precision x,y,z."""
    pts = pc.points
    header = [
        "ply",
        "format binary_little_endian 1.0" if binary else "format ascii 1.0",
        f"element vertex {len(pts)}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            f.write(np.ascontiguousarray(pts, dtype="<f8").tobytes())
        else:
            for x, y, z in pts:
                f.write(f"{x:.17g} {y:.17g} {z:.17g}\n".encode("ascii"))
