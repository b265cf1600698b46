import pytest

from conftest import write_malformed_checkpoint
from octpcc.cli import main
from octpcc.geometry import read_ply

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
        assert lines[0] == "batch_index,ce_loss,mse_loss"
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
                                      "width_disagrees_with_tensors"])
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
