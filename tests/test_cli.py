import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (payload_past_the_table, v1_layout_stream,
                      write_malformed_checkpoint)
from octpcc.cli import _model_config, _schedule, build_parser, main
from octpcc.coder import Bitstream
from octpcc.context import ContextConfig
from octpcc.geometry import quantize, read_ply
from octpcc.model import ContextModel, ModelConfig, TrainSchedule
from octpcc.octree import build
from octpcc.pipeline import encode

MODEL_FLAGS = ["--window", "8", "--ancestors", "1", "--d-embed", "4",
               "--d-model", "16", "--hidden-main", "32", "--hidden-branch",
               "16", "--heads", "4", "--seed", "1"]


def run(*argv):
    return main(list(argv))


@pytest.fixture
def workspace(tmp_path):
    ply = tmp_path / "cloud.ply"
    assert run("synth", "--kind", "plane", "--n", "800", "--seed", "1",
               "--out", str(ply)) == 0
    ckpt = tmp_path / "model.ckpt"
    assert run("train", "--corpus", str(ply), "--depth", "4", "--out",
               str(ckpt), *MODEL_FLAGS, "--branch-epochs", "1",
               "--main-epochs", "1") == 0
    return tmp_path, ply, ckpt


class TestSynth:
    def test_writes_valid_ply(self, tmp_path):
        out = tmp_path / "p.ply"
        assert run("synth", "--kind", "plane", "--n", "5000", "--seed", "1",
                   "--out", str(out)) == 0
        assert len(read_ply(out)) == 5000
        assert (tmp_path / "p.ply.config").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.ply"
        b = tmp_path / "b.ply"
        for out in (a, b):
            run("synth", "--kind", "sphere", "--n", "1000", "--seed", "3",
                "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_is_a_data_error(self, tmp_path, capsys):
        assert run("synth", "--kind", "plane", "--n", "10", "--seed", "-1",
                   "--out", str(tmp_path / "x.ply")) == 3
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("jitter", ["inf", "nan", "-0.5"])
    def test_jitter_that_is_not_a_distance_is_a_data_error(self, tmp_path,
                                                           capsys, jitter):
        out = tmp_path / "x.ply"
        assert run("synth", "--kind", "plane", "--n", "50", "--seed", "0",
                   "--jitter", jitter, "--out", str(out)) == 3
        assert "jitter" in capsys.readouterr().err
        assert not out.exists()

    def test_bogus_kind_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--kind", "bogus", "--n", "10", "--seed", "0",
                "--out", str(tmp_path / "x.ply"))
        assert exc.value.code == 2


class TestTrain:
    def test_writes_trace_and_echo(self, workspace):
        tmp_path, ply, ckpt = workspace
        trace = tmp_path / "model.ckpt.trace.csv"
        assert trace.exists()
        lines = trace.read_text().splitlines()
        assert lines[0] == "batch_index,ce_loss,mse_loss,stage,lr"
        assert len(lines) > 2
        assert (tmp_path / "model.ckpt.config").exists()

    def test_variant_flags(self, tmp_path):
        ply = tmp_path / "c.ply"
        run("synth", "--kind", "uniform", "--n", "300", "--seed", "2",
            "--out", str(ply))
        ckpt = tmp_path / "base.ckpt"
        assert run("train", "--corpus", str(ply), "--depth", "3", "--out",
                   str(ckpt), *MODEL_FLAGS, "--residual", "off", "--branch",
                   "off", "--branch-epochs", "1", "--main-epochs", "1") == 0
        from octpcc.model import ContextModel
        assert ContextModel.load(ckpt).cfg.variant == "plain"

    def test_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["train", "--corpus", "c.ply",
                                          "--depth", "4", "--out", "m.ckpt"])
        assert _model_config(args) == ModelConfig()
        assert _schedule(args) == TrainSchedule()

    def test_strict_level_is_not_a_flag(self, capsys):
        """The window is the N - 1 previous nodes of the stream, whatever
        their level: there is no same-level window to ask for."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["train", "--corpus", "c.ply", "--depth",
                                       "4", "--out", "m.ckpt",
                                       "--strict-level", "on"])
        assert exc.value.code == 2
        assert "--strict-level" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,field", [
        ("--batch-size", "0", "batch_size"), ("--batch-size", "-1", "batch_size"),
        ("--branch-epochs", "-1", "epoch"), ("--main-epochs", "-1", "epoch"),
        ("--lr", "-1", "lr"), ("--lr", "nan", "lr"), ("--lr", "inf", "lr"),
        ("--lr-decay", "-0.5", "lr_decay"), ("--lr-decay", "nan", "lr_decay"),
        ("--seed", "-1", "seed"), ("--window", str(10**30), "n_window")])
    def test_value_that_cannot_train_is_a_data_error(self, tmp_path, capsys,
                                                     flag, value, field):
        ply = tmp_path / "c.ply"
        run("synth", "--kind", "plane", "--n", "300", "--seed", "1",
            "--out", str(ply))
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        assert run("train", "--corpus", str(ply), "--depth", "4", "--out",
                   str(ckpt), *MODEL_FLAGS, flag, value) == 3
        assert field in capsys.readouterr().err
        assert not ckpt.exists()

    def test_missing_corpus(self, tmp_path):
        assert run("train", "--corpus", str(tmp_path / "nope.ply"), "--depth",
                   "4", "--out", str(tmp_path / "m.ckpt"), *MODEL_FLAGS) == 3


class TestCodecCommands:
    def test_full_loop(self, workspace, capsys):
        tmp_path, ply, ckpt = workspace
        bs = tmp_path / "cloud.bin"
        assert run("encode", "--input", str(ply), "--checkpoint", str(ckpt),
                   "--depth", "4", "--out", str(bs)) == 0
        assert (tmp_path / "cloud.bin.report").exists()
        dec = tmp_path / "decoded.ply"
        assert run("decode", "--bitstream", str(bs), "--checkpoint", str(ckpt),
                   "--out", str(dec)) == 0
        capsys.readouterr()
        assert run("eval", "--original", str(ply), "--decoded", str(dec),
                   "--depth", "4", "--bitstream", str(bs)) == 0
        out = capsys.readouterr().out
        assert "chamfer = 0" in out
        assert "d1_psnr = inf" in out
        assert "lossless = True" in out
        assert "bpip = " in out

    @pytest.mark.parametrize("case", ["missing_heads", "two_attention_layers",
                                      "width_disagrees_with_tensors",
                                      "window_past_int64", "strict_level_on"])
    def test_malformed_checkpoint_exit_code(self, tmp_path, capsys, case):
        ply = tmp_path / "cloud.ply"
        run("synth", "--kind", "plane", "--n", "200", "--seed", "1",
            "--out", str(ply))
        ckpt = tmp_path / "bad.ckpt"
        write_malformed_checkpoint(ckpt, case)
        capsys.readouterr()
        assert run("encode", "--input", str(ply), "--checkpoint", str(ckpt),
                   "--depth", "3", "--out", str(tmp_path / "x.bin")) == 4
        assert capsys.readouterr().err.startswith("error: ")

    def test_window_wider_than_the_stream_codes_losslessly(self, tmp_path,
                                                           capsys):
        """The K/V cache holds a row per node of the stream, so a window of
        2**26 slots costs no more than the cloud's nodes."""
        ply, ckpt = tmp_path / "cloud.ply", tmp_path / "wide.ckpt"
        run("synth", "--kind", "plane", "--n", "300", "--seed", "1",
            "--out", str(ply))
        ContextModel.create(ModelConfig.tiny(
            seed=1, ctx=ContextConfig(n_window=2**26))).save(ckpt)
        bs, dec = tmp_path / "cloud.bin", tmp_path / "decoded.ply"
        assert run("encode", "--input", str(ply), "--checkpoint", str(ckpt),
                   "--depth", "4", "--out", str(bs)) == 0
        assert run("decode", "--bitstream", str(bs), "--checkpoint", str(ckpt),
                   "--out", str(dec)) == 0
        capsys.readouterr()
        assert run("eval", "--original", str(ply), "--decoded", str(dec),
                   "--depth", "4") == 0
        assert "lossless = True" in capsys.readouterr().out

    @pytest.mark.parametrize("keep", [5, 12, 200, -3])
    def test_truncated_checkpoint_exit_code(self, tmp_path, capsys, keep):
        ply = tmp_path / "cloud.ply"
        run("synth", "--kind", "plane", "--n", "200", "--seed", "1",
            "--out", str(ply))
        ckpt = tmp_path / "cut.ckpt"
        ContextModel.create(ModelConfig.tiny(seed=1)).save(ckpt)
        ckpt.write_bytes(ckpt.read_bytes()[:keep])
        capsys.readouterr()
        assert run("encode", "--input", str(ply), "--checkpoint", str(ckpt),
                   "--depth", "3", "--out", str(tmp_path / "x.bin")) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command,depth", [
        ("encode", "0"), ("encode", "22"), ("eval", "22")])
    def test_depth_out_of_range_exit_code(self, tmp_path, capsys, command,
                                          depth):
        """A depth outside 1-21 is a data error on every command."""
        ply = tmp_path / "cloud.ply"
        run("synth", "--kind", "plane", "--n", "200", "--seed", "1",
            "--out", str(ply))
        if command == "encode":
            ckpt = tmp_path / "model.ckpt"
            ContextModel.create(ModelConfig.tiny(seed=1)).save(ckpt)
            argv = ["--input", str(ply), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "x.bin")]
        else:
            argv = ["--original", str(ply), "--decoded", str(ply)]
        capsys.readouterr()
        assert run(command, *argv, "--depth", depth) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_overflowing_checkpoint_exit_code(self, tmp_path, capsys):
        """A checkpoint whose weights overflow the float32 codec step is a
        data error that blames the model, and writes no stream."""
        ply, ckpt = tmp_path / "cloud.ply", tmp_path / "huge.ckpt"
        run("synth", "--kind", "plane", "--n", "300", "--seed", "1",
            "--out", str(ply))
        model = ContextModel.create(ModelConfig.tiny(seed=1))
        model.params["slot.w"] = model.params["slot.w"] * 1e25
        model.save(ckpt)
        bs = tmp_path / "x.bin"
        capsys.readouterr()
        assert run("encode", "--input", str(ply), "--checkpoint", str(ckpt),
                   "--depth", "5", "--out", str(bs)) == 3
        assert "float32 codec step overflowed" in capsys.readouterr().err
        assert not bs.exists()

    def test_overflowing_checkpoint_decode_exit_code(self, tmp_path, capsys):
        """Decoding with such a checkpoint (a sane stream given its digest)
        is the same data error, and writes no cloud."""
        ply, ckpt = tmp_path / "cloud.ply", tmp_path / "huge.ckpt"
        run("synth", "--kind", "plane", "--n", "300", "--seed", "1",
            "--out", str(ply))
        model = ContextModel.create(ModelConfig.tiny(seed=1))
        bs, _ = encode(read_ply(ply), 5, 5, model)
        model.params["slot.w"] = model.params["slot.w"] * 1e25
        model.save(ckpt)
        bs.header.model_digest = model.digest()
        stream, out = tmp_path / "x.bin", tmp_path / "back.ply"
        bs.write(stream)
        capsys.readouterr()
        assert run("decode", "--bitstream", str(stream), "--checkpoint",
                   str(ckpt), "--out", str(out)) == 3
        assert "float32 codec step overflowed" in capsys.readouterr().err
        assert not out.exists()

    def test_model_mismatch_exit_code(self, workspace):
        tmp_path, ply, ckpt = workspace
        bs = tmp_path / "cloud.bin"
        run("encode", "--input", str(ply), "--checkpoint", str(ckpt),
            "--depth", "4", "--out", str(bs))
        other = tmp_path / "other.ckpt"
        run("train", "--corpus", str(ply), "--depth", "4", "--out", str(other),
            *MODEL_FLAGS[:-1], "99", "--branch-epochs", "0", "--main-epochs",
            "0")
        assert run("decode", "--bitstream", str(bs), "--checkpoint",
                   str(other), "--out", str(tmp_path / "x.ply")) == 4

    def test_corrupt_stream_exit_code(self, workspace):
        tmp_path, ply, ckpt = workspace
        bs = tmp_path / "cloud.bin"
        run("encode", "--input", str(ply), "--checkpoint", str(ckpt),
            "--depth", "4", "--out", str(bs))
        blob = bytearray(bs.read_bytes())
        del blob[-3:]  # truncate payload
        (tmp_path / "bad.bin").write_bytes(bytes(blob))
        assert run("decode", "--bitstream", str(tmp_path / "bad.bin"),
                   "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "y.ply")) == 5

    def test_version_1_stream_exit_code(self, tmp_path, capsys):
        """Version 1 is refused as a corrupt stream naming both versions."""
        ckpt = tmp_path / "model.ckpt"
        ContextModel.create(ModelConfig.tiny(seed=1)).save(ckpt)
        bs = tmp_path / "v1.bin"
        bs.write_bytes(v1_layout_stream(1, payload=bytes(40)))
        capsys.readouterr()
        assert run("decode", "--bitstream", str(bs), "--checkpoint",
                   str(ckpt), "--out", str(tmp_path / "x.ply")) == 5
        assert capsys.readouterr().err == (
            "error: bitstream version 1; this decoder reads version 6 only\n")

    @staticmethod
    def relabelled_stream_exit(workspace, capsys, version):
        """Encode with the CLI, relabel the stream `version`, decode it:
        (exit code, stderr)."""
        tmp_path, ply, ckpt = workspace
        bs = tmp_path / "cloud.bin"
        assert run("encode", "--input", str(ply), "--checkpoint", str(ckpt),
                   "--depth", "4", "--out", str(bs)) == 0
        blob = bytearray(bs.read_bytes())
        blob[4:6] = version.to_bytes(2, "little")
        bs.write_bytes(bytes(blob))
        capsys.readouterr()
        code = run("decode", "--bitstream", str(bs), "--checkpoint",
                   str(ckpt), "--out", str(tmp_path / "x.ply"))
        return code, capsys.readouterr().err

    def test_version_2_stream_exit_code(self, workspace, capsys):
        """Version 2 has version 6's layout, but its tables came from the
        unfolded model's floats, so it too is refused naming both versions."""
        assert self.relabelled_stream_exit(workspace, capsys, 2) == (
            5, "error: bitstream version 2; this decoder reads version 6 only\n")

    def test_version_3_stream_exit_code(self, workspace, capsys):
        """Version 3 has version 6's layout, but its tables came from a
        per-node step whose floats differ from the row-invariant step's in
        the last bits, so it is refused naming both versions."""
        assert self.relabelled_stream_exit(workspace, capsys, 3) == (
            5, "error: bitstream version 3; this decoder reads version 6 only\n")

    def test_version_4_stream_exit_code(self, workspace, capsys):
        """Version 4 has version 6's layout, but its payload came from a
        bit-wise arithmetic coder and its tables from the float64 step, so it
        is refused naming both versions."""
        assert self.relabelled_stream_exit(workspace, capsys, 4) == (
            5, "error: bitstream version 4; this decoder reads version 6 only\n")

    def test_version_5_stream_exit_code(self, workspace, capsys):
        """Version 5 has version 6's layout and coder, but its tables came
        from the float64 step, which rounds differently from the float32
        one, so it is refused naming both versions."""
        assert self.relabelled_stream_exit(workspace, capsys, 5) == (
            5, "error: bitstream version 5; this decoder reads version 6 only\n")

    def test_value_past_the_table_exit_code(self, workspace, capsys):
        """A payload whose value no encoder writes exits 5 naming the level
        and node where the decoder met it."""
        tmp_path, ply, ckpt = workspace
        model = ContextModel.load(ckpt)
        tables = []
        bs, _ = encode(read_ply(ply), 4, 4, model, table_log=tables)
        seq = build(quantize(read_ply(ply), 4))
        payload, k = payload_past_the_table(tables, seq.occupancy)
        Bitstream(header=bs.header, payload=payload).write(
            tmp_path / "sliver.bin")
        capsys.readouterr()
        assert run("decode", "--bitstream", str(tmp_path / "sliver.bin"),
                   "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "x.ply")) == 5
        assert capsys.readouterr().err == (
            f"error: level {seq.level[k]}, node {k}: the payload's value lies "
            "outside the coding interval\n")

    def test_eval_refuses_a_forged_frame(self, workspace, capsys):
        """A header scale that is not a finite positive number fails as a
        corrupt stream before eval reads the decoded cloud against it."""
        tmp_path, ply, ckpt = workspace
        bs, dec = tmp_path / "cloud.bin", tmp_path / "dec.ply"
        run("encode", "--input", str(ply), "--checkpoint", str(ckpt),
            "--depth", "4", "--out", str(bs))
        run("decode", "--bitstream", str(bs), "--checkpoint", str(ckpt),
            "--out", str(dec))
        stream = Bitstream.read(bs)
        stream.header.scale = -1.0
        stream.write(tmp_path / "forged.bin")
        capsys.readouterr()
        assert run("eval", "--original", str(ply), "--decoded", str(dec),
                   "--depth", "4", "--bitstream",
                   str(tmp_path / "forged.bin")) == 5
        assert "header scale" in capsys.readouterr().err

    def test_encode_outputs_byte_reproducible(self, workspace):
        tmp_path, ply, ckpt = workspace
        outs = []
        for tag in ("r1", "r2"):
            bs = tmp_path / f"{tag}.bin"
            run("encode", "--input", str(ply), "--checkpoint", str(ckpt),
                "--depth", "4", "--out", str(bs))
            outs.append((bs.read_bytes(),
                         (tmp_path / f"{tag}.bin.report").read_bytes()))
        assert outs[0] == outs[1]

    def test_malformed_ply_exit_code(self, tmp_path, capsys):
        ply = tmp_path / "bad.ply"
        ply.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 1\n"
                        b"property float x\nproperty float y\n"
                        b"property float z\nend_header\n0 abc 1\n")
        assert run("eval", "--original", str(ply), "--decoded", str(ply),
                   "--depth", "3") == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_truncated_levels(self, workspace, capsys):
        tmp_path, ply, ckpt = workspace
        bs = tmp_path / "trunc.bin"
        assert run("encode", "--input", str(ply), "--checkpoint", str(ckpt),
                   "--depth", "4", "--levels", "3", "--out", str(bs)) == 0
        dec = tmp_path / "trunc.ply"
        assert run("decode", "--bitstream", str(bs), "--checkpoint", str(ckpt),
                   "--out", str(dec)) == 0
        capsys.readouterr()
        assert run("eval", "--original", str(ply), "--decoded", str(dec),
                   "--depth", "4", "--bitstream", str(bs)) == 0
        out = capsys.readouterr().out
        assert "lossless = False" in out

    def test_eval_without_bitstream_uses_the_original_frame(self, workspace,
                                                            capsys):
        """Without --bitstream, eval voxelizes the decoded cloud in the
        original's own frame, which is the frame the encoder wrote, so the
        distortion lines equal those read with the header's frame."""
        tmp_path, ply, ckpt = workspace
        bs, dec = tmp_path / "trunc.bin", tmp_path / "trunc.ply"
        run("encode", "--input", str(ply), "--checkpoint", str(ckpt),
            "--depth", "4", "--levels", "3", "--out", str(bs))
        run("decode", "--bitstream", str(bs), "--checkpoint", str(ckpt),
            "--out", str(dec))
        argv = ["eval", "--original", str(ply), "--decoded", str(dec),
                "--depth", "4"]
        capsys.readouterr()
        assert run(*argv, "--bitstream", str(bs)) == 0
        with_header = capsys.readouterr().out.splitlines()
        assert run(*argv) == 0
        without = capsys.readouterr().out.splitlines()
        assert with_header[0].startswith("bpip = ")
        assert without == with_header[1:]
        assert "lossless = False" in without

    @pytest.mark.parametrize("flag", ["--input", "--checkpoint", "--out"])
    def test_path_that_is_a_directory_is_a_data_error(self, workspace, capsys,
                                                      flag):
        tmp_path, ply, ckpt = workspace
        paths = {"--input": str(ply), "--checkpoint": str(ckpt),
                 "--out": str(tmp_path / "x.bin"), flag: str(tmp_path)}
        capsys.readouterr()
        assert run("encode", "--depth", "4",
                   *(item for pair in paths.items() for item in pair)) == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestAnalyze:
    def test_prints_stats_for_multiple_checkpoints(self, workspace, capsys):
        tmp_path, ply, ckpt = workspace
        base = tmp_path / "base.ckpt"
        run("train", "--corpus", str(ply), "--depth", "4", "--out", str(base),
            *MODEL_FLAGS, "--residual", "off", "--branch", "off",
            "--branch-epochs", "1", "--main-epochs", "1")
        capsys.readouterr()
        assert run("analyze", "--checkpoint", str(ckpt), "--checkpoint",
                   str(base), "--corpus", str(ply), "--depth", "4") == 0
        out = capsys.readouterr().out
        assert out.count("ad = ") == 2
        assert out.count("acos = ") == 2
        assert "variant = residual+branch" in out
        assert "variant = plain" in out


@pytest.fixture(scope="module")
def coded(tmp_path_factory):
    """A checkpoint, a stream coded with it, and the PLY it decodes to."""
    d = tmp_path_factory.mktemp("mutated_streams")
    ckpt, ply, bs, dec = (d / "model.ckpt", d / "cloud.ply", d / "cloud.bin",
                          d / "decoded.ply")
    ContextModel.create(ModelConfig.tiny(seed=1)).save(ckpt)
    assert run("synth", "--kind", "plane", "--n", "300", "--seed", "3",
               "--out", str(ply)) == 0
    assert run("encode", "--input", str(ply), "--checkpoint", str(ckpt),
               "--depth", "5", "--out", str(bs)) == 0
    assert run("decode", "--bitstream", str(bs), "--checkpoint", str(ckpt),
               "--out", str(dec)) == 0
    return d, ckpt, bs.read_bytes(), dec.read_bytes()


POSITION = st.integers(0, 1 << 16)  # taken modulo the stream's length
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), POSITION, st.integers(0, 7)),
    st.tuples(st.just("truncate"), POSITION),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=64)),
    st.tuples(st.just("overwrite"), POSITION,
              st.binary(min_size=1, max_size=64)))


def mutate(blob: bytes, mutation) -> bytes:
    kind, *args = mutation
    if kind == "append":
        return blob + args[0]
    pos = args[0] % len(blob)
    if kind == "truncate":
        return blob[:pos]
    if kind == "flip":
        return blob[:pos] + bytes([blob[pos] ^ 1 << args[1]]) + blob[pos + 1:]
    return blob[:pos] + args[1] + blob[pos + len(args[1]):]


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(mutation=MUTATIONS)
def test_mutated_stream_exits_typed(coded, mutation):
    """`octpcc decode` of a flipped, truncated, extended or overwritten
    stream exits 3, 4 or 5, never with a traceback; it may exit 0 only when
    the mutation leaves the decoded cloud as it was (a bit the decoder never
    reads, or a span overwritten with its own bytes)."""
    d, ckpt, blob, decoded = coded
    bs, out = d / "mutated.bin", d / "mutated.ply"
    bs.write_bytes(mutate(blob, mutation))
    out.unlink(missing_ok=True)
    code = run("decode", "--bitstream", str(bs), "--checkpoint", str(ckpt),
               "--out", str(out))
    assert code in (0, 3, 4, 5)
    if code == 0:
        assert out.read_bytes() == decoded


def test_eval_checks_the_header_checksum(coded, capsys):
    """eval reads its rate from the header, so it checks the header's CRC
    against the decoded cloud first: a flipped raw point count (bit 4 of
    byte 40) fails as a corrupt stream instead of printing a wrong bpip."""
    d, _, blob, decoded = coded
    ply, dec, bs = d / "cloud.ply", d / "crc_decoded.ply", d / "crc.bin"
    dec.write_bytes(decoded)
    argv = ["eval", "--original", str(ply), "--decoded", str(dec),
            "--depth", "5", "--bitstream", str(bs)]
    bs.write_bytes(blob)
    capsys.readouterr()
    assert run(*argv) == 0
    assert "lossless = True" in capsys.readouterr().out
    bs.write_bytes(mutate(blob, ("flip", 40, 4)))
    assert run(*argv) == 5
    assert "checksum" in capsys.readouterr().err
    assert run(*argv[:-4], "--depth", "4", "--bitstream",
               str(d / "cloud.bin")) == 3
    assert "disagrees with the stream's depth 5" in capsys.readouterr().err


# The example sets the last 32 bytes, branch.b2, to the float32 maximum.
@settings(max_examples=150, deadline=4000, derandomize=True, database=None)
@given(mutation=MUTATIONS)
@example(mutation=("overwrite", -32, b"\xff\xff\x7f\x7f" * 8))
def test_mutated_checkpoint_exits_typed(coded, mutation):
    """`octpcc encode` then `decode` with a flipped, truncated, extended or
    overwritten checkpoint exit 3, 4 or 5, never with a traceback; a
    checkpoint that still loads, whatever its weights, codes the cloud
    losslessly."""
    d, ckpt, _, decoded = coded
    bad, bs, out = d / "mutated.ckpt", d / "ckpt_mutated.bin", d / "ckpt.ply"
    bad.write_bytes(mutate(ckpt.read_bytes(), mutation))
    out.unlink(missing_ok=True)
    code = run("encode", "--input", str(d / "cloud.ply"), "--checkpoint",
               str(bad), "--depth", "5", "--out", str(bs))
    assert code in (0, 3, 4, 5)
    if code == 0:
        assert run("decode", "--bitstream", str(bs), "--checkpoint", str(bad),
                   "--out", str(out)) == 0
        assert out.read_bytes() == decoded
