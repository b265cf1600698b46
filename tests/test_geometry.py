import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from octpcc.errors import InvalidInput, OctpccError, ParseError
from octpcc.geometry import (MAX_DEPTH, QuantizedPointCloud, RawPointCloud,
                             dequantize, quantize, read_ply, synth, voxelize,
                             write_ply)

from conftest import brute_force_octree_counts, random_cloud


class TestQuantize:
    def test_single_point_degenerate_extent(self):
        qpc = quantize(RawPointCloud(np.array([[0.5, 0.5, 0.5]])), 3)
        assert qpc.voxels.tolist() == [[0, 0, 0]]
        np.testing.assert_array_equal(qpc.origin, [0.5, 0.5, 0.5])
        assert qpc.scale > 0

    def test_unit_cube_corners_depth1(self):
        corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                           dtype=float)
        qpc = quantize(RawPointCloud(corners), 1)
        assert qpc.voxels.shape == (8, 3)
        assert set(map(tuple, qpc.voxels)) == set(map(tuple, corners.astype(int)))

    def test_matches_reference_rounding(self, rng):
        """Voxel count equals an independently computed dedup of the rounding."""
        pts = rng.uniform(-1, 1, size=(1000, 3))
        depth = 6
        qpc = quantize(RawPointCloud(pts), depth)
        origin = pts.min(axis=0)
        scale = (pts.max(axis=0) - origin).max() / ((1 << depth) - 1)
        seen = set()
        for p in pts:
            v = tuple(int(np.floor((c - o) / scale + 0.5)) for c, o in zip(p, origin))
            seen.add(v)
        assert len(qpc) == len(seen)
        assert set(map(tuple, qpc.voxels)) == seen

    def test_permutation_invariant(self, rng):
        pts = rng.uniform(-2, 3, size=(300, 3))
        a = quantize(RawPointCloud(pts), 5)
        b = quantize(RawPointCloud(pts[rng.permutation(300)]), 5)
        assert a.same_voxels(b)

    def test_zero_extent_axis_maps_to_zero(self):
        pts = np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)])
        qpc = quantize(RawPointCloud(pts), 4)
        assert (qpc.voxels[:, 1] == 0).all() and (qpc.voxels[:, 2] == 0).all()

    def test_errors(self):
        with pytest.raises(InvalidInput):
            RawPointCloud(np.empty((0, 3)))
        with pytest.raises(InvalidInput):
            RawPointCloud(np.array([[0.0, np.nan, 1.0]]))
        with pytest.raises(InvalidInput):
            quantize(RawPointCloud(np.ones((2, 3))), 0)
        with pytest.raises(InvalidInput):
            quantize(RawPointCloud(np.ones((2, 3))), 22)

    @pytest.mark.parametrize("depth", [0, MAX_DEPTH + 1])
    def test_quantized_cloud_refuses_depth_outside_range(self, depth):
        """A deeper cloud than MAX_DEPTH is no codec input, and its voxel key
        would need more than 63 bits."""
        want = rf"depth must be in \[1, {MAX_DEPTH}\], got {depth}"
        with pytest.raises(InvalidInput, match=want):
            QuantizedPointCloud(depth=depth, voxels=np.zeros((1, 3), np.int64),
                                origin=np.zeros(3), scale=1.0)
        with pytest.raises(InvalidInput, match=want):
            quantize(RawPointCloud(np.ones((2, 3))), depth)

    def test_far_points_clip_to_the_grid_edge(self):
        """A point far outside the frame lands on the nearest edge voxel,
        without an overflowing cast."""
        pts = np.array([[1e300, -1e300, 0.5], [-1e300, 1e300, 1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qpc = voxelize(RawPointCloud(pts), 4, np.zeros(3), 1.0 / 15)
        assert qpc.voxels.tolist() == [[0, 15, 15], [15, 0, 8]]

    @pytest.mark.parametrize("point,origin,scale,want", [
        ([1e308, 0, 0], np.zeros(3), 1 / 15, [15, 0, 0]),
        ([-1.7e308, 0, 0], np.full(3, 1.7e308), 1.0, [0, 0, 0]),
    ], ids=["divide", "subtract"])
    def test_overflow_to_inf_clips_silently(self, point, origin, scale, want):
        """A point whose offset or grid coordinate overflows float64 becomes
        inf, which clips to the grid edge, so it warns of nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qpc = voxelize(RawPointCloud(np.array([point], float)), 4, origin,
                           scale)
        assert qpc.voxels.tolist() == [want]

    def test_extent_beyond_float_range_refused(self):
        """Finite points whose extent overflows would give an infinite scale."""
        pts = np.array([[-1e308, 0.0, 0.0], [1e308, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="extent overflows"):
                quantize(RawPointCloud(pts), 4)


def _dedup_cases():
    rng = np.random.default_rng(7)
    cases = {}
    for depth in (1, 6, MAX_DEPTH):
        top = (1 << depth) - 1
        v = rng.integers(0, top + 1, size=(500, 3))
        v = np.concatenate([v, v[:200], [[top, top, top], [top, 0, top]]])
        cases[f"random-d{depth}"] = (depth, v[rng.permutation(len(v))])
    cases["reverse-sorted"] = (5, np.unique(rng.integers(0, 32, (300, 3)), axis=0)[::-1])
    cases["single"] = (3, np.array([[1, 7, 2]]))
    cases["all-duplicate"] = (4, np.tile([[3, 0, 9]], (50, 1)))
    cases["int32"] = (6, rng.integers(0, 64, (400, 3)).astype(np.int32))
    return cases


@pytest.mark.parametrize("case", sorted(_dedup_cases()))
def test_voxel_key_dedup_matches_row_unique(case):
    """Deduplicating on the packed key gives np.unique's lexicographic rows."""
    depth, v = _dedup_cases()[case]
    qpc = QuantizedPointCloud(depth=depth, voxels=v, origin=np.zeros(3), scale=1.0)
    np.testing.assert_array_equal(qpc.voxels, np.unique(v.astype(np.int64), axis=0))
    assert qpc.voxels.dtype == np.int64
    assert qpc.voxels.ndim == 2 and qpc.voxels.shape[1] == 3
    assert qpc.voxels.flags.c_contiguous


class TestDequantize:
    def test_affine(self):
        qpc = QuantizedPointCloud(depth=2, voxels=np.array([[0, 0, 0]]),
                                  origin=np.array([1.0, 2.0, 3.0]), scale=2.0)
        np.testing.assert_array_equal(dequantize(qpc).points, [[1.0, 2.0, 3.0]])

    def test_max_corner(self):
        d = 4
        top = (1 << d) - 1
        qpc = QuantizedPointCloud(depth=d, voxels=np.array([[top, top, top]]),
                                  origin=np.array([0.5, -1.0, 2.0]), scale=0.25)
        np.testing.assert_allclose(dequantize(qpc).points[0],
                                   qpc.origin + 0.25 * top)

    def test_quantize_roundtrip_idempotent(self, rng):
        for kind in ("uniform", "plane", "sphere", "gaussian_clusters", "lidar_rings"):
            pc = synth(kind, 400, seed=9)
            q1 = quantize(pc, 6)
            q2 = quantize(dequantize(q1), 6)
            assert q1.same_voxels(q2), kind


class TestSynth:
    def test_deterministic(self):
        a = synth("plane", 100, seed=7)
        b = synth("plane", 100, seed=7)
        np.testing.assert_array_equal(a.points, b.points)

    def test_all_kinds_bit_reproducible(self):
        for kind in ("uniform", "plane", "sphere", "gaussian_clusters",
                     "lidar_rings"):
            a = synth(kind, 64, seed=11, jitter=0.01)
            b = synth(kind, 64, seed=11, jitter=0.01)
            np.testing.assert_array_equal(a.points, b.points)

    def test_sphere_radii_within_jitter(self):
        eps = 0.05
        pc = synth("sphere", 1000, seed=1, jitter=eps)
        radii = np.linalg.norm(pc.points, axis=1)
        assert (radii >= 0.8 - eps - 1e-12).all()
        assert (radii <= 0.8 + eps + 1e-12).all()

    def test_surfaces_exact_without_jitter(self):
        sph = synth("sphere", 500, seed=3)
        np.testing.assert_allclose(np.linalg.norm(sph.points, axis=1), 0.8,
                                   atol=1e-9)
        pl = synth("plane", 500, seed=3)
        x, y, z = pl.points.T
        np.testing.assert_allclose(z, 0.4 * x - 0.3 * y + 0.1, atol=1e-9)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput):
            synth("bogus", 10, seed=0)

    def test_uniform_octree_counts_match_brute_force(self):
        """Quantized uniform cloud: level populations vs a set-based oracle."""
        from octpcc.octree import build
        qpc = quantize(synth("uniform", 10000, seed=3), 8)
        seq = build(qpc)
        counts = [int((seq.level == lvl).sum()) for lvl in range(1, 9)]
        assert counts == brute_force_octree_counts(qpc.voxels, 8)
        # uniformly sparse: the deepest level is nearly one node per voxel parent
        assert counts[-1] > 0.5 * len(qpc)


class TestPly:
    def test_ascii_roundtrip(self, tmp_path):
        pts = np.array([[0.0, 1.25, -3.5], [1e-9, 2.0, 4.0], [7.0, 8.0, 9.0]])
        path = tmp_path / "three.ply"
        write_ply(path, RawPointCloud(pts))
        back = read_ply(path)
        np.testing.assert_array_equal(back.points, pts)

    def test_binary_skips_extra_properties(self, tmp_path):
        path = tmp_path / "colored.ply"
        header = (b"ply\nformat binary_little_endian 1.0\n"
                  b"element vertex 2\n"
                  b"property float x\nproperty float y\nproperty float z\n"
                  b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
                  b"end_header\n")
        row = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                        ("red", "u1"), ("green", "u1"), ("blue", "u1")])
        data = np.array([(1, 2, 3, 255, 0, 0), (4, 5, 6, 0, 255, 0)], dtype=row)
        path.write_bytes(header + data.tobytes())
        pc = read_ply(path)
        np.testing.assert_allclose(pc.points, [[1, 2, 3], [4, 5, 6]])

    def test_ascii_and_binary_agree(self, tmp_path, rng):
        pc = random_cloud(rng, 50)
        pa = tmp_path / "a.ply"
        pb = tmp_path / "b.ply"
        write_ply(pa, pc, binary=False)
        write_ply(pb, pc, binary=True)
        np.testing.assert_array_equal(read_ply(pa).points, read_ply(pb).points)

    def test_signalling_nan_is_refused_without_a_warning(self, tmp_path):
        """A float32 signalling NaN cast with integer axes raises numpy's
        invalid-cast flag; the reader refuses the point and warns nothing."""
        path = tmp_path / "snan.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\n"
                         b"element vertex 1\nproperty float x\n"
                         b"property uchar y\nproperty uint z\nend_header\n"
                         + bytes.fromhex("b300807f") + bytes(1) + bytes(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput):
                read_ply(path)

    def test_ascii_with_face_element(self, tmp_path):
        text = ("ply\nformat ascii 1.0\n"
                "element vertex 2\n"
                "property double x\nproperty double y\nproperty double z\n"
                "element face 1\nproperty list uchar int vertex_indices\n"
                "end_header\n"
                "0 0 0\n1 1 1\n3 0 1 0\n")
        path = tmp_path / "faces.ply"
        path.write_text(text)
        assert len(read_ply(path)) == 2

    @pytest.mark.parametrize("blob", [
        # a binary scalar element before the vertices, skipped by its stride
        b"ply\nformat binary_little_endian 1.0\nelement camera 2\n"
        b"property float f\nproperty uchar flag\nelement vertex 2\n"
        b"property double x\nproperty double y\nproperty double z\n"
        b"end_header\n"
        + np.array([(9.5, 7), (8.5, 6)], dtype="<f4,u1").tobytes()
        + np.array([1, 2, 3, 4, 5, 6], dtype="<f8").tobytes(),
        # an ASCII scalar-only element before the vertices
        b"ply\nformat ascii 1.0\nelement camera 2\nproperty float a\n"
        b"property float b\nelement vertex 2\nproperty float x\n"
        b"property float y\nproperty float z\nend_header\n"
        b"9 9\n8 8\n1 2 3\n4 5 6\n",
        # an ASCII list element before the vertices, one list empty
        b"ply\nformat ascii 1.0\nelement face 2\n"
        b"property list uchar int vertex_indices\nproperty uchar flag\n"
        b"element vertex 2\nproperty float x\nproperty float y\n"
        b"property float z\nend_header\n3 0 1 1 7\n0 5\n1 2 3\n4 5 6\n",
        # comment and obj_info lines anywhere in the header
        b"ply\nformat ascii 1.0\ncomment written by hand\n"
        b"obj_info scanner 3\nelement vertex 2\ncomment between\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"end_header\n1 2 3\n4 5 6\n",
    ], ids=["binary_scalar_element_first", "ascii_scalar_element_first",
            "ascii_list_element_first", "comment_and_obj_info"])
    def test_reads_vertices_after_other_elements(self, tmp_path, blob):
        path = tmp_path / "mixed.ply"
        path.write_bytes(blob)
        np.testing.assert_array_equal(read_ply(path).points,
                                      [[1, 2, 3], [4, 5, 6]])

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"not a ply\n")
        with pytest.raises(ParseError):
            read_ply(path)

    def test_missing_axis(self, tmp_path):
        path = tmp_path / "noz.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                        "property float x\nproperty float y\nend_header\n0 0\n")
        with pytest.raises(ParseError):
            read_ply(path)

    @pytest.mark.parametrize("blob", [
        # ASCII vertex token that is not a number
        b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
        b"property float y\nproperty float z\nend_header\n0 abc 1\n",
        # non-integer and negative list counts in a face before the vertices
        b"ply\nformat ascii 1.0\nelement face 1\n"
        b"property list uchar int vertex_indices\nelement vertex 1\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"end_header\n1.5 0 1\n0 0 0\n",
        b"ply\nformat ascii 1.0\nelement face 1\n"
        b"property list uchar int vertex_indices\nelement vertex 1\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"end_header\n-1 0 0 0\n",
        # property lines short of their arity
        b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"end_header\n0 0 0\n",
        b"ply\nformat ascii 1.0\nelement face 1\nproperty list uchar int\n"
        b"element vertex 1\nproperty float x\nproperty float y\n"
        b"property float z\nend_header\n0\n0 0 0\n",
        # a property name repeated within an element
        b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
        b"property float x\nproperty float x\nproperty float y\n"
        b"property float z\nend_header\n" + bytes(16),
        b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"end_header\n0 1 2 3\n",
        # negative element count
        b"ply\nformat binary_little_endian 1.0\nelement vertex -1\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"end_header\n" + bytes(24),
        # a binary list property before the vertices has no fixed stride
        b"ply\nformat binary_little_endian 1.0\nelement face 1\n"
        b"property list uchar int vertex_indices\nelement vertex 1\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"end_header\n" + bytes(1) + bytes(12),
        # a binary body one byte short of its vertices
        b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"end_header\n" + bytes(23),
    ], ids=["ascii_non_number", "list_count_not_integer", "list_count_negative",
            "property_without_name", "list_property_without_name",
            "binary_repeated_property", "ascii_repeated_property",
            "negative_element_count", "binary_list_before_vertex",
            "binary_body_short"])
    def test_malformed_body_or_header(self, tmp_path, blob):
        path = tmp_path / "bad.ply"
        path.write_bytes(blob)
        with pytest.raises(ParseError):
            read_ply(path)


# PLY scalar type names and their little-endian numpy codes.
PLY_TYPES = {"char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
             "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
             "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
             "float": "f4", "float32": "f4", "double": "f8", "float64": "f8"}
# Header lines that no PLY reader accepts; none of them reshapes the body.
JUNK_HEADER_LINES = ["foo bar", "element", "element vertex", "element v x",
                     "element face 1 2", "property float", "property list uchar",
                     "format", "format binary_big_endian 1.0", "end_header x"]
# Tokens that neither parse as a number nor as a list count.
JUNK_TOKENS = ["abc", "1e", "+-1", "..", "0x1f", "1,5"]


@st.composite
def ply_files(draw):
    """(file bytes, written x/y/z, whether the file is left intact): a vertex
    element between other elements of scalar and list properties, in either
    encoding, then possibly cut short or given a junk token or header line."""
    binary = draw(st.booleans())
    small = st.integers(0, 100)

    def value(code):  # None marks a list property
        if code is None:
            return draw(st.lists(small, max_size=3))
        v = draw(small)
        return v / 4 if code[0] == "f" else v  # exact in every float type

    def element(name, count, props):
        return name, props, [[value(code) for _, code in props]
                             for _ in range(count)]

    def other(name):
        props = [(f"p{i}", PLY_TYPES.get(draw(st.sampled_from([None, *PLY_TYPES]))))
                 for i in range(draw(st.integers(0, 3)))]
        return element(name, draw(st.integers(0, 3)), props)

    names = draw(st.permutations(["x", "y", "z", *draw(
        st.lists(st.sampled_from(["red", "nx"]), unique=True))]))
    vtypes = [draw(st.sampled_from(sorted(PLY_TYPES))) for _ in names]
    vertex = element("vertex", draw(st.integers(1, 4)),
                     [(n, PLY_TYPES[t]) for n, t in zip(names, vtypes)])
    before = [other(f"e{i}") for i in range(draw(st.integers(0, 2)))]
    after = [other(f"f{i}") for i in range(draw(st.integers(0, 2)))]
    elements = before + [vertex] + after
    type_of = {code: name for name, code in PLY_TYPES.items()}
    header = ["ply", "format " + ("binary_little_endian" if binary else "ascii")
              + " 1.0"]
    for name, props, rows in elements:
        header.append(f"element {name} {len(rows)}")
        for pname, code in props:
            header.append(f"property list uchar int {pname}" if code is None
                          else f"property {type_of[code]} {pname}")
    header.append("end_header")
    chunks = []
    for _, props, rows in elements:
        for row in rows:
            for (_, code), value in zip(props, row):
                if code is None:
                    chunks.append((np.array([len(value)], "u1"),
                                   np.array(value, "<i4")) if binary
                                  else [str(len(value)), *map(str, value)])
                else:
                    chunks.append((np.array([value], "<" + code),) if binary
                                  else [str(value)])
    if binary:
        body = b"".join(a.tobytes() for chunk in chunks for a in chunk)
    else:
        tokens = [t for chunk in chunks for t in chunk]
    _, _, rows = vertex
    written = np.array([[row[names.index(a)] for a in "xyz"] for row in rows],
                       dtype=np.float64)
    mutation = draw(st.sampled_from(["none", "truncate", "junk_header"]
                                    + ([] if binary else ["junk_token"])))
    if mutation == "truncate":
        if binary:
            body = body[:draw(st.integers(0, len(body) - 1))]
        else:
            tokens = tokens[:draw(st.integers(0, len(tokens) - 1))]
    elif mutation == "junk_token":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
            st.sampled_from(JUNK_TOKENS))
    elif mutation == "junk_header":
        header.insert(draw(st.integers(1, len(header) - 1)),
                      draw(st.sampled_from(JUNK_HEADER_LINES)))
    if not binary:
        body = (" ".join(tokens) + "\n").encode("ascii")
    stride_known = not binary or all(code is not None for _, props, _ in before
                                     for _, code in props)
    intact = mutation == "none" and stride_known
    return ("\n".join(header) + "\n").encode("ascii") + body, written, intact


@pytest.fixture(scope="module")
def ply_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated_ply")


@settings(max_examples=150, deadline=1000, derandomize=True, database=None)
@given(case=ply_files())
def test_generated_ply_reads_its_points_or_fails_typed(ply_dir, case):
    """A generated PLY reads back as the x, y, z written into it, or fails
    with an OctpccError; an intact file whose vertices can be reached always
    reads back."""
    blob, written, intact = case
    path = ply_dir / "case.ply"
    path.write_bytes(blob)
    try:
        points = read_ply(path).points
    except OctpccError:
        assert not intact
        return
    np.testing.assert_array_equal(points, written)
