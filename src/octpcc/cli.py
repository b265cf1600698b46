"""Command-line workflow: synth, train, encode, decode, eval, analyze.

Exit codes: 0 success, 2 usage error, 3 data error (bad input/file),
4 model mismatch, 5 corrupt bitstream.  synth, train, encode and decode
write a `<output>.config` echo of their flags so a run can be reproduced;
eval and analyze write no file.
"""

from __future__ import annotations

import argparse
import sys

from . import metrics, pipeline
from .context import ContextConfig
from .errors import (ConfigError, CorruptStream, InvalidInput,
                     ModelMismatch, OctpccError)
from .geometry import (SYNTH_KINDS, dequantize, quantize, read_ply, synth,
                       voxelize, write_ply)
from .coder import HEADER_BYTES, Bitstream
from .model import (ContextModel, ModelConfig, TrainSchedule, train,
                    write_trace)
from .octree import build

EXIT_OK = 0
EXIT_DATA = 3
EXIT_MODEL = 4
EXIT_CORRUPT = 5


def _write_echo(out_path, args: argparse.Namespace) -> None:
    skip = {"func"}
    with open(f"{out_path}.config", "w") as f:
        for key in sorted(vars(args)):
            if key not in skip:
                f.write(f"{key} = {getattr(args, key)}\n")


def _onoff(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    m = ModelConfig()
    p.add_argument("--window", type=int, default=m.ctx.n_window,
                   help="context slots N")
    p.add_argument("--ancestors", type=int, default=m.ctx.k_ancestors,
                   help="ancestors K per slot")
    p.add_argument("--d-embed", type=int, default=m.d_embed)
    p.add_argument("--d-model", type=int, default=m.d_model)
    p.add_argument("--hidden-main", type=int, default=m.d_hidden_main)
    p.add_argument("--hidden-branch", type=int, default=m.d_hidden_branch)
    p.add_argument("--heads", type=int, default=m.heads)
    p.add_argument("--residual", type=_onoff, default=m.enable_residual,
                   help="context feature residual on|off")
    p.add_argument("--branch", type=_onoff, default=m.enable_branch,
                   help="occupancy branch + fusion on|off")
    p.add_argument("--seed", type=int, default=m.seed)


def _model_config(args) -> ModelConfig:
    ctx = ContextConfig(n_window=args.window, k_ancestors=args.ancestors)
    return ModelConfig(ctx=ctx, d_embed=args.d_embed, d_model=args.d_model,
                       d_hidden_main=args.hidden_main,
                       d_hidden_branch=args.hidden_branch, heads=args.heads,
                       enable_residual=args.residual,
                       enable_branch=args.branch, seed=args.seed)


def _schedule(args) -> TrainSchedule:
    return TrainSchedule(branch_epochs=args.branch_epochs,
                         main_epochs=args.main_epochs, lr=args.lr,
                         lr_decay=args.lr_decay, batch_size=args.batch_size)


def _corpus(args) -> list:
    return [build(quantize(read_ply(path), args.depth)) for path in args.corpus]


def cmd_synth(args) -> int:
    pc = synth(args.kind, args.n, args.seed, jitter=args.jitter)
    write_ply(args.out, pc, binary=args.format == "binary")
    _write_echo(args.out, args)
    print(f"wrote {args.out} ({len(pc)} points)")
    return EXIT_OK


def cmd_train(args) -> int:
    model = ContextModel.create(_model_config(args))
    trace = train(model, _corpus(args), _schedule(args))
    model.save(args.out)
    _write_echo(args.out, args)
    trace_path = args.trace or f"{args.out}.trace.csv"
    write_trace(trace_path, trace)
    stage2 = [r.ce_loss for r in trace if r.stage == 2]
    print(f"wrote {args.out} (variant: {model.cfg.variant})")
    if stage2:
        print(f"final cross-entropy: {stage2[-1]:.4f} bits/node")
    return EXIT_OK


def cmd_encode(args) -> int:
    pc = read_ply(args.input)
    model = ContextModel.load(args.checkpoint)
    levels = args.levels if args.levels is not None else args.depth
    bs, report = pipeline.encode(pc, args.depth, levels, model)
    bs.write(args.out)
    _write_echo(args.out, args)
    report_path = args.report or f"{args.out}.report"
    with open(report_path, "w") as f:
        f.write(report.to_text(timing=False))
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_decode(args) -> int:
    bs = Bitstream.read(args.bitstream)
    model = ContextModel.load(args.checkpoint)
    qpc = pipeline.decode(bs, model)
    write_ply(args.out, dequantize(qpc), binary=args.format == "binary")
    _write_echo(args.out, args)
    print(f"wrote {args.out} ({len(qpc)} points)")
    return EXIT_OK


def cmd_eval(args) -> int:
    original = read_ply(args.original)
    decoded = read_ply(args.decoded)
    qa = quantize(original, args.depth)
    if args.bitstream:
        bs = Bitstream.read(args.bitstream)
        header = bs.header
        if header.depth != args.depth:
            raise InvalidInput(f"--depth {args.depth} disagrees with the "
                               f"stream's depth {header.depth}")
        origin, scale = header.origin, header.scale
        total_bits = (HEADER_BYTES + len(bs.payload)) * 8
        points = header.raw_point_count
    else:
        origin, scale = qa.origin, qa.scale
        total_bits = None
        points = len(original)
    qd = voxelize(decoded, args.depth, origin, scale)
    if args.bitstream:
        crc = header.crc(len(bs.payload),
                         build(qd).occupancy[:header.node_count])
        if crc != header.checksum:
            raise CorruptStream(
                f"checksum {crc:#010x} of the header and the decoded cloud's "
                f"occupancy disagrees with the header's {header.checksum:#010x}")
    cd = metrics.chamfer(qa, qd)
    psnr = metrics.d1_psnr(qa, qd)
    if total_bits is not None:
        print(f"bpip = {metrics.bpip(total_bits, points):.6f}")
    print(f"chamfer = {cd:.9g}")
    print(f"d1_psnr = {psnr:.4f}")
    print(f"lossless = {qa.same_voxels(qd)}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    corpus = _corpus(args)
    for ckpt in args.checkpoint:
        model = ContextModel.load(ckpt)
        bank = metrics.collect_features(model, corpus)
        stats = metrics.interclass_stats(bank)
        print(f"checkpoint = {ckpt}")
        print(f"variant = {model.cfg.variant}")
        print(stats.to_text(), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="octpcc",
                                 description="octree point cloud geometry codec")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic point cloud")
    p.add_argument("--kind", choices=SYNTH_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("ascii", "binary"), default="ascii")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a context model")
    p.add_argument("--corpus", nargs="+", required=True, help="PLY file(s)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--trace", default=None, help="loss trace CSV path")
    _add_model_flags(p)
    s = TrainSchedule()
    p.add_argument("--branch-epochs", type=int, default=s.branch_epochs)
    p.add_argument("--main-epochs", type=int, default=s.main_epochs)
    p.add_argument("--lr", type=float, default=s.lr)
    p.add_argument("--lr-decay", type=float, default=s.lr_decay)
    p.add_argument("--batch-size", type=int, default=s.batch_size)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="compress a point cloud")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--levels", type=int, default=None,
                   help="coded levels (default: full depth)")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decompress a bitstream")
    p.add_argument("--bitstream", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("ascii", "binary"), default="ascii")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="rate/distortion of a decoded cloud")
    p.add_argument("--original", required=True)
    p.add_argument("--decoded", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--bitstream", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="inter-class context statistics")
    p.add_argument("--checkpoint", action="append", required=True)
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_analyze)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ModelMismatch, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except CorruptStream as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except (OctpccError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
