import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FORWARD_CONFIGS, payload_past_the_table
import octpcc
from octpcc.coder import (MAX_BITS_PAST_END, ArithmeticEncoder, Bitstream,
                          HEADER_BYTES, quantize_dist)
from octpcc.context import ContextAssembler, ContextConfig
from octpcc.errors import (CorruptStream, InvalidInput, ModelMismatch,
                           NumericalError, OctpccError)
from octpcc.geometry import RawPointCloud, quantize, synth
from octpcc.model import ContextModel, KVCache, ModelConfig, zero_head_layers
from octpcc.octree import build, reconstruct
from octpcc.pipeline import ENCODE_BLOCK, MAX_NODES_PER_BIT, decode, encode

LOG2_255 = np.log2(255.0)


def tiny_model(seed=3, **overrides):
    return ContextModel.create(ModelConfig.tiny(seed=seed, **overrides))


def per_node_reference(pc, depth, model):
    """(payload, tables, ideal bits, per-level bits) of an encoder that
    predicts one target a step and codes each node as soon as it is
    predicted: predict, quantize_dist and ArithmeticEncoder.encode, node by
    node."""
    seq = build(quantize(pc, depth))
    cache = KVCache(model, ContextAssembler(seq, model.cfg.ctx), len(seq))
    enc = ArithmeticEncoder()
    tables, ideal, marks = [], 0.0, []
    for i in range(len(seq)):
        q = model.predict(cache, i, i + 1)[1][0]
        table = quantize_dist(q)
        if seq.level[i] > len(marks):
            marks.append(enc.bits_emitted)
        sym = int(seq.occupancy[i])
        enc.encode(table, sym - 1)
        ideal += -np.log2(float(q[sym - 1]))  # in float64, as encode sums
        tables.append(table)
    payload = enc.finish()
    return payload, tables, ideal, np.diff(marks + [len(payload) * 8]).tolist()


class TestEncodeDecode:
    def test_single_point_cloud(self):
        pc = RawPointCloud(np.array([[0.3, 0.7, -0.2]]))
        model = tiny_model()
        bs, report = encode(pc, 4, 4, model)
        assert report.node_count == 4  # one chain node per level
        out = decode(bs, model)
        assert out.same_voxels(quantize(pc, 4))

    def test_lossless_small_matrix(self):
        """A few clouds x all four ablation variants round-trip exactly."""
        clouds = [synth("uniform", 150, seed=1), synth("plane", 200, seed=2),
                  synth("lidar_rings", 120, seed=3)]
        for res in (False, True):
            for br in (False, True):
                model = tiny_model(seed=5, enable_residual=res,
                                   enable_branch=br)
                for pc in clouds:
                    bs, _ = encode(pc, 4, 4, model)
                    assert decode(bs, model).same_voxels(quantize(pc, 4))

    def test_uniform_model_codelength_closed_form(self):
        model = zero_head_layers(tiny_model())
        pc = synth("uniform", 400, seed=9)
        bs, report = encode(pc, 5, 5, model)
        t = report.node_count
        expect_payload = t * LOG2_255
        assert abs(report.payload_bits - expect_payload) < 0.01 * t + 64
        assert report.total_bits == report.header_bits + report.payload_bits
        assert abs(report.bpip - report.total_bits / len(pc)) < 1e-12

    def test_truncated_decode_matches_offline_reconstruction(self):
        pc = synth("gaussian_clusters", 800, seed=4)
        model = tiny_model()
        depth = 6
        bs, _ = encode(pc, depth, depth - 2, model)
        got = decode(bs, model)
        seq = build(quantize(pc, depth))
        want = reconstruct(seq, depth - 2)
        assert set(map(tuple, got.voxels)) == set(map(tuple, want))

    def test_header_carries_frame(self):
        pc = synth("sphere", 200, seed=6)
        model = tiny_model()
        bs, _ = encode(pc, 5, 5, model)
        qpc = quantize(pc, 5)
        np.testing.assert_array_equal(bs.header.origin, qpc.origin)
        assert bs.header.scale == qpc.scale
        assert bs.header.raw_point_count == len(pc)
        assert bs.header.voxel_count == len(qpc)

    def test_bad_levels(self):
        model = tiny_model()
        pc = synth("uniform", 50, seed=1)
        with pytest.raises(InvalidInput):
            encode(pc, 4, 0, model)
        with pytest.raises(InvalidInput):
            encode(pc, 4, 5, model)

    def test_depth_beyond_model_support(self):
        """Depth 22 is a data error, refused by quantize's one depth check."""
        model = ContextModel.create(ModelConfig())
        with pytest.raises(InvalidInput, match="depth must be in"):
            encode(synth("uniform", 50, seed=1), 22, 22, model)


class TestAgreement:
    @staticmethod
    def assert_tables_identical(pc, depth, model):
        """The decoder, one node a step, reproduces the table sequence of
        the encoder, which steps in runs, bit for bit."""
        enc_log, dec_log = [], []
        bs, report = encode(pc, depth, depth, model, table_log=enc_log)
        decode(bs, model, table_log=dec_log)
        assert len(enc_log) == len(dec_log) == report.node_count
        for a, b in zip(enc_log, dec_log):
            np.testing.assert_array_equal(a, b)
        return report

    @pytest.mark.parametrize("case", list(FORWARD_CONFIGS))
    def test_freq_tables_identical_both_directions(self, case):
        """On a stream of several windows whose level starts fall inside
        the encoder's blocks, so that its runs end at level starts."""
        pc = synth("lidar_rings", 1500, seed=8)
        model = ContextModel.create(replace(FORWARD_CONFIGS[case], seed=11))
        seq = build(quantize(pc, 6))
        assert (seq.level_offsets % ENCODE_BLOCK > 0).sum() >= 3
        report = self.assert_tables_identical(pc, 6, model)
        assert report.node_count >= 3 * model.cfg.ctx.n_window

    def test_full_scale_tables_identical_past_its_window(self):
        """The full-scale model (N = 1,024) on a stream longer than its
        window, whose last level starts among full windows, inside a run
        and a block."""
        pc = synth("plane", 1000, seed=3)
        model = ContextModel.create(ModelConfig.full_scale(seed=11))
        seq = build(quantize(pc, 7))
        last = seq.level_offsets[-1]
        assert last > model.cfg.ctx.n_window and last % ENCODE_BLOCK > 0
        self.assert_tables_identical(pc, 7, model)

    @pytest.mark.parametrize("case", ["default_size", "full_scale"])
    def test_encoder_steps_in_runs_decoder_node_by_node(self, case, monkeypatch):
        """The decoder predicts one node a step.  The encoder predicts runs
        of a level's nodes from node 0 on, as long as the level, ENCODE_BLOCK
        and the cache's batch allow, growing windows included, so some run's
        targets have windows of different lengths.  At full scale (N =
        1,024, runs of 16) lidar_rings d5's 266 nodes all have growing
        windows."""
        if case == "full_scale":
            model = ContextModel.create(ModelConfig.full_scale(seed=11))
            pc, depth = synth("lidar_rings", 20000, seed=1), 5
        else:
            model = ContextModel.create(replace(FORWARD_CONFIGS[case], seed=11))
            pc, depth = synth("lidar_rings", 1500, seed=8), 6
        seq = build(quantize(pc, depth))
        steps, batches = [], set()
        predict = ContextModel.predict

        def spy(self, cache, i, j):
            steps.append((i, j))
            batches.add(cache.batch)
            return predict(self, cache, i, j)

        monkeypatch.setattr(ContextModel, "predict", spy)
        bs, _ = encode(pc, depth, depth, model)
        encoder, steps[:] = list(steps), []
        decode(bs, model)
        assert steps == [(i, i + 1) for i in range(len(seq))]
        (batch,) = batches
        run = min(ENCODE_BLOCK, batch)
        assert [i for i, _ in encoder] == [0] + [j for _, j in encoder[:-1]]
        assert encoder[-1][1] == len(seq)
        levels = [seq.level_slice(level) for level in range(1, depth + 1)]
        want = sum(-(-(nodes.stop - nodes.start) // run) for nodes in levels)
        assert len(encoder) == want < len(seq)
        for i, j in encoder:
            assert j - i <= run and seq.level[i] == seq.level[j - 1]
        asm, nodes = ContextAssembler(seq, model.cfg.ctx), np.arange(len(seq))
        lengths = nodes - asm.window_start(nodes)
        assert any(len(set(lengths[i:j])) > 1 for i, j in encoder)
        if case == "full_scale":
            assert len(seq) == 266
            assert (lengths < model.cfg.ctx.n_window - 1).all()

    @pytest.mark.parametrize("case", list(FORWARD_CONFIGS))
    def test_block_encoder_matches_per_node_reference(self, case):
        """Stepping, quantizing and coding in runs and blocks changes
        nothing: same payload, tables, ideal bits and per-level bits as
        stepping one target at a time and coding node by node, on a cloud of
        several blocks whose levels start inside a block."""
        pc = synth("lidar_rings", 1500, seed=8)
        model = ContextModel.create(replace(FORWARD_CONFIGS[case], seed=11))
        seq = build(quantize(pc, 6))
        assert len(seq) > 2 * ENCODE_BLOCK
        assert (seq.level_offsets % ENCODE_BLOCK > 0).sum() >= 3
        log = []
        bs, report = encode(pc, 6, 6, model, table_log=log)
        payload, tables, ideal, per_level = per_node_reference(pc, 6, model)
        assert bs.payload == payload
        assert len(log) == len(tables) == len(seq)
        for a, b in zip(log, tables):
            np.testing.assert_array_equal(a, b)
        assert report.ideal_bits == ideal
        assert report.per_level_bits == per_level

    def test_codec_weights_follow_the_parameters(self, tmp_path):
        """After a write to the parameters, the stream is the one a freshly
        loaded copy of the changed model writes, not the one before."""
        pc = synth("plane", 300, seed=3)
        model = tiny_model(seed=2)
        before = encode(pc, 5, 5, model)[0].to_bytes()
        zero_head_layers(model)
        after = encode(pc, 5, 5, model)[0].to_bytes()
        model.save(tmp_path / "changed.ckpt")
        fresh = ContextModel.load(tmp_path / "changed.ckpt")
        assert after == encode(pc, 5, 5, fresh)[0].to_bytes()
        assert after[HEADER_BYTES:] != before[HEADER_BYTES:]

    def test_unchanged_model_is_lowered_and_hashed_once(self, monkeypatch):
        """A second encode and a decode with the same parameters reuse the
        model's lowering and digest."""
        pc = synth("plane", 300, seed=3)
        model = tiny_model(seed=2)
        first = encode(pc, 5, 5, model)[0].to_bytes()
        calls = []

        def counted(fn):
            def call(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(octpcc.model, "CodecWeights",
                            counted(octpcc.model.CodecWeights))
        monkeypatch.setattr(octpcc.nn, "checkpoint_digest",
                            counted(octpcc.nn.checkpoint_digest))
        again = encode(pc, 5, 5, model)[0].to_bytes()
        assert decode(again, model).same_voxels(quantize(pc, 5))
        assert again == first
        assert calls == []

    def test_write_after_encode_refuses_the_old_stream(self):
        pc = synth("plane", 300, seed=3)
        model = tiny_model(seed=2)
        bs, _ = encode(pc, 5, 5, model)
        model.params["slot.b"] = model.params["slot.b"] + 0.5
        with pytest.raises(ModelMismatch):
            decode(bs.to_bytes(), model)

    @pytest.mark.parametrize("case", ["residual+branch", "plain"])
    def test_codec_runs_on_the_lowered_weights_alone(self, case, monkeypatch):
        """Encode and decode call none of the unfolded forward's pieces, and
        with the branch off the step returns no branch output."""
        model = ContextModel.create(replace(FORWARD_CONFIGS[case], seed=11))

        def refuse(*args, **kwargs):
            raise AssertionError("the codec ran the unfolded forward")

        for name in ("_embed", "_project_kv", "_attend_core", "_heads"):
            monkeypatch.setattr(ContextModel, name, refuse)
        monkeypatch.setattr(octpcc.nn, "concat", refuse)
        pc = synth("plane", 300, seed=3)
        bs, _ = encode(pc, 5, 5, model)
        assert decode(bs, model).same_voxels(quantize(pc, 5))
        seq = build(quantize(pc, 5))
        cache = KVCache(model, ContextAssembler(seq, model.cfg.ctx), len(seq))
        o = model.predict(cache, 0, 1)[2]
        assert (o is None) == (not model.cfg.enable_branch)

    def test_payload_within_ideal_bound(self):
        pc = synth("plane", 1000, seed=3)
        model = tiny_model(seed=2)
        _, report = encode(pc, 6, 6, model)
        assert report.payload_bits <= 1.01 * report.ideal_bits + 64

    def test_per_level_bits_sum_to_payload(self):
        pc = synth("uniform", 400, seed=5)
        model = tiny_model()
        _, report = encode(pc, 5, 5, model)
        assert sum(report.per_level_bits) == report.payload_bits
        assert len(report.per_level_bits) == 5

    def test_per_level_ideal_bits_sum_to_ideal(self):
        pc = synth("lidar_rings", 1500, seed=8)
        _, report = encode(pc, 6, 5, tiny_model())
        assert len(report.per_level_ideal_bits) == 5
        assert all(b > 0 for b in report.per_level_ideal_bits)
        assert sum(report.per_level_ideal_bits) == pytest.approx(
            report.ideal_bits, rel=1e-9)


@st.composite
def codec_cases(draw):
    """A small model (window from the target alone to past the stream, any
    ancestors, heads, widths and ablation flags), a small cloud coded
    through some of its levels, and a run length and cache size for stepping
    its stream in runs."""
    heads = draw(st.integers(1, 4))
    cfg = ModelConfig(
        ctx=ContextConfig(n_window=draw(st.one_of(st.integers(1, 12),
                                                  st.integers(13, 400))),
                          k_ancestors=draw(st.integers(0, 3))),
        d_embed=draw(st.integers(1, 6)),
        d_model=heads * draw(st.integers(1, 4)),
        d_hidden_main=draw(st.integers(1, 24)),
        d_hidden_branch=draw(st.integers(1, 12)), heads=heads,
        enable_residual=draw(st.booleans()), enable_branch=draw(st.booleans()),
        seed=draw(st.integers(0, 1000)))
    kind = draw(st.sampled_from(["uniform", "plane", "sphere",
                                 "gaussian_clusters", "lidar_rings"]))
    pc = synth(kind, draw(st.integers(8, 400)), seed=draw(st.integers(0, 100)))
    depth = draw(st.integers(2, 6))
    return (cfg, pc, depth, draw(st.integers(max(2, depth - 2), depth)),
            draw(st.integers(1, 40)), draw(st.booleans()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=codec_cases())
def test_round_trips_across_model_configurations(case):
    """Lossless decode, the decoder's table log equal to the encoder's and
    the payload within c02's bound, on drawn models and clouds; and the
    step's runs (from node 0 on, within a level) equal its one-target steps
    bit for bit.  With `compact`, the runs go through a K/V buffer of the
    fewest rows a run needs, N - 2 + run, which compacts wherever the
    stream is longer, and the one-target steps through one of N - 1 rows."""
    cfg, pc, depth, coded, run, compact = case
    model = ContextModel.create(cfg)
    enc_log, dec_log = [], []
    bs, report = encode(pc, depth, coded, model, table_log=enc_log)
    got = decode(bs.to_bytes(), model, table_log=dec_log)
    seq = build(quantize(pc, depth))
    want = np.unique(reconstruct(seq, coded), axis=0)
    np.testing.assert_array_equal(np.unique(got.voxels, axis=0), want)
    assert len(enc_log) == len(dec_log) == report.node_count
    for a, b in zip(enc_log, dec_log):
        np.testing.assert_array_equal(a, b)
    assert report.payload_bits <= 1.01 * report.ideal_bits + 64

    n = cfg.ctx.n_window
    nodes = report.node_count
    sizes = (max(1, n - 2 + run), max(1, n - 1)) if compact else (nodes, nodes)
    caches = [KVCache(model, ContextAssembler(seq, cfg.ctx), size)
              for size in sizes]
    runs, i = [], 0
    while i < nodes:
        j = min(i + run, seq.level_slice(seq.level[i]).stop)
        runs.append(model.predict(caches[0], i, j))
        i = j
    steps = [model.predict(caches[1], k, k + 1) for k in range(nodes)]
    for got, want in zip(zip(*runs), zip(*steps)):
        if want[0] is None:  # o with the branch off
            assert set(got) == {None}
        else:
            np.testing.assert_array_equal(np.concatenate(got),
                                          np.concatenate(want))


class TestFailureModes:
    def test_model_mismatch_before_any_symbol(self):
        pc = synth("uniform", 100, seed=1)
        bs, _ = encode(pc, 4, 4, tiny_model(seed=1))
        with pytest.raises(ModelMismatch):
            decode(bs, tiny_model(seed=2))

    @pytest.mark.parametrize("kind,n,seed,depth,scan_header", [
        ("uniform", 300, 7, 5, True),
        # the top bit of its last payload byte decoded to a wrong voxel set
        # in version 1, which had no checksum
        ("plane", 3000, 3, 6, False),
    ])
    def test_flipped_bit_fails_or_decodes_identically(self, kind, n, seed,
                                                      depth, scan_header):
        """Bit 0 of every header byte, and a sample of payload bits: each
        flip fails as an OctpccError or decodes to the identical cloud.  A
        flipped frame (origin, scale) decodes to the same tree, so only the
        checksum can catch it."""
        model = tiny_model(seed=1)
        bs, _ = encode(synth(kind, n, seed=seed), depth, depth, model)
        want = decode(bs, model)
        blob = bs.to_bytes()
        last = len(blob) - 1
        flips = [(byte, 0) for byte in range(HEADER_BYTES) if scan_header]
        flips += [(int(byte), 7 - k % 8) for k, byte in
                  enumerate(np.linspace(HEADER_BYTES, last, 12))]
        flips.append((last, 7))
        for byte, bit in flips:
            corrupt = bytearray(blob)
            corrupt[byte] ^= 1 << bit
            try:
                got = decode(bytes(corrupt), model)
            except OctpccError as exc:
                if 8 <= byte < 40:
                    assert re.match(rf"level {depth}, node \d+: checksum",
                                    str(exc)), exc
                continue
            assert got.same_voxels(want), (byte, bit)
            np.testing.assert_array_equal(got.origin, want.origin)
            assert got.scale == want.scale, (byte, bit)

    @pytest.mark.parametrize("name", ["embed.occupancy", "slot.w"])
    def test_overflowing_step_blames_the_model(self, name):
        """A weight of 1e25 is finite in float32, but the float32 step's
        query-key products overflow.  The encoder refuses the model with a
        NumericalError that names the first node whose distribution is not
        finite, and numpy warns of nothing on the way."""
        model = tiny_model(seed=1)
        weights = model.params[name].copy()
        weights.flat[0] = 1e25
        model.params[name] = weights
        pc = synth("plane", 300, seed=1)
        seq = build(quantize(pc, 5))
        cache = KVCache(model, ContextAssembler(seq, model.cfg.ctx), len(seq))
        with np.errstate(all="ignore"):
            first = next(i for i in range(len(seq)) if not np.isfinite(
                model.predict(cache, i, i + 1)[1]).all())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as exc:
                encode(pc, 5, 5, model)
        assert str(exc.value).startswith(
            f"level {seq.level[first]}, node {first}: the model's float32 "
            "codec step overflowed")

    @pytest.mark.parametrize("name", ["embed.occupancy", "slot.w"])
    def test_overflowing_step_blames_the_model_when_decoding(self, name):
        """The decoder refuses such a model as the encoder does.  The stream
        is a sane model's with the overflowing model's digest written into
        its header (the CRC is checked only once the tree is decoded): the
        first node whose distribution is not finite, the one after the last
        table logged, fails as a NumericalError that names it, and numpy
        warns of nothing on the way."""
        pc = synth("plane", 300, seed=1)
        bs, _ = encode(pc, 5, 5, tiny_model(seed=1))
        model = tiny_model(seed=1)
        weights = model.params[name].copy()
        weights.flat[0] = 1e25
        model.params[name] = weights
        bs.header.model_digest = model.digest()
        tables = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as exc:
                decode(Bitstream.from_bytes(bs.to_bytes()), model,
                       table_log=tables)
        assert re.match(rf"level \d+, node {len(tables)}: the model's float32 "
                        "codec step overflowed to a non-finite distribution",
                        str(exc.value)), exc.value

    def test_short_payload_stops_decoding(self):
        """A payload cut to 4 bytes under an inflated node count that 4
        bytes could still hold fails once the decoder has read more than 64
        bits past the payload's end."""
        pc = synth("uniform", 300, seed=7)
        model = tiny_model(seed=1)
        bs, _ = encode(pc, 5, 5, model)
        assert len(bs.payload) > 4
        bs.header.node_count *= 10
        assert bs.header.node_count <= (4 * 8 + MAX_BITS_PAST_END) * MAX_NODES_PER_BIT
        short = Bitstream(header=bs.header, payload=bs.payload[:4])
        with pytest.raises(CorruptStream,
                           match=r"^level \d+, node \d+: .* past the end"):
            decode(Bitstream.from_bytes(short.to_bytes()), model)

    def test_value_past_the_table_names_level_and_node(self):
        """A payload whose value lies in the sliver of range that a step's
        table leaves unused fails at that step's node."""
        pc = synth("uniform", 300, seed=7)
        model = tiny_model(seed=1)
        tables = []
        bs, _ = encode(pc, 5, 5, model, table_log=tables)
        seq = build(quantize(pc, 5))
        payload, k = payload_past_the_table(tables, seq.occupancy)
        assert 0 < k < len(seq)
        with pytest.raises(CorruptStream,
                           match=rf"^level {seq.level[k]}, node {k}: the "
                                 "payload's value lies outside the coding "
                                 "interval$"):
            decode(Bitstream(header=bs.header, payload=payload), model)

    @pytest.mark.parametrize("field,value", [
        ("depth", 3),         # below coded_levels = 5
        ("depth", 30),        # beyond the deepest octree, 21
        ("coded_levels", 0),
        ("flags", 0),         # the model has residual and branch on
        ("node_count", 0),    # a coded tree has at least its root
        ("scale", np.nan), ("scale", 0.0), ("scale", -1.0), ("scale", np.inf),
        ("origin", np.array([np.nan, 0.0, 0.0])),
        ("origin", np.array([0.0, -np.inf, 0.0])),
        ("node_count", 2**40),  # more nodes than the payload's bits can code
    ])
    def test_header_the_model_cannot_decode_rejected(self, field, value):
        pc = synth("uniform", 100, seed=1)
        model = tiny_model(seed=1)
        bs, _ = encode(pc, 5, 5, model)
        setattr(bs.header, field, value)
        with pytest.raises(CorruptStream, match="^header"):
            decode(Bitstream.from_bytes(bs.to_bytes()), model)

    def test_most_compressible_stream_decodes(self):
        """Every node of a full cube coded at the largest frequency a table
        can give (FREQ_TOTAL - 254) fits the payload's node-count bound."""
        side = np.arange(32)
        pc = RawPointCloud(np.stack(np.meshgrid(side, side, side),
                                    axis=-1).reshape(-1, 3).astype(float))
        model = zero_head_layers(tiny_model())
        b2 = model.params["main.b2"].copy()
        b2[254] = 60.0  # q(occupancy 255) ~ 1 - 1e-6
        model.params["main.b2"] = b2
        bs, report = encode(pc, 5, 5, model)
        assert report.node_count == sum(8 ** lvl for lvl in range(5))
        assert report.payload_bits < report.node_count / MAX_NODES_PER_BIT + 16
        assert decode(bs.to_bytes(), model).same_voxels(quantize(pc, 5))

    @pytest.mark.parametrize("field,change", [
        ("node_count", "one"), ("node_count", "half"),
        ("node_count", "one_short"), ("node_count", "one_over"),
        ("voxel_count", -1), ("voxel_count", +1),
    ])
    def test_count_check_messages(self, field, change):
        """A wrong count is reported with the level and node where the
        decoder noticed it, and with what it decoded."""
        pc = synth("uniform", 100, seed=1)
        model = tiny_model(seed=1)
        bs, report = encode(pc, 4, 4, model)
        seq = build(quantize(pc, 4))
        n, last = len(seq), f"level 4, node {len(seq) - 1}: decoded"
        if field == "voxel_count":
            declared = report.voxel_count + change
            want = (f"{last} {report.voxel_count} voxels; the header declares "
                    f"{declared}")
        elif change == "one_over":
            declared = n + 1
            want = f"{last} {n} nodes; the header declares {declared}"
        else:
            declared = {"one": 1, "half": n // 2, "one_short": n - 1}[change]
            node = int(seq.parent[declared])  # parent of the first node past it
            want = (f"level {seq.level[node]}, node {node}: decoded tree "
                    f"exceeds the declared node count {declared}")
        setattr(bs.header, field, declared)
        with pytest.raises(CorruptStream) as info:
            decode(Bitstream.from_bytes(bs.to_bytes()), model)
        assert str(info.value) == want

    def test_report_text_format(self):
        pc = synth("uniform", 100, seed=2)
        _, report = encode(pc, 4, 4, tiny_model())
        text = report.to_text()
        for key in ("total_bits", "bpip", "per_level_bits", "ideal_bits"):
            assert f"{key} = " in text
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert keys.index("per_level_ideal_bits") == keys.index("per_level_bits") + 1


def test_every_export_resolves():
    """No name in the package's __all__ outlives what it names."""
    assert [name for name in octpcc.__all__ if not hasattr(octpcc, name)] == []
