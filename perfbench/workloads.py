"""The benchmark's workloads, driven only through octpcc's public entry points.

Every workload is one set-up followed by rounds of identical work, run
closed-loop by a single caller.  A round optionally trains a fresh copy of
the set-up model, then encodes and decodes each of the workload's clouds.
Inputs come from `geometry.synth` and the seed alone.

Calls go through module attributes (`pipeline.encode`, `model.train`) so the
tracer's probes on those names see them.
"""

from __future__ import annotations

import gc
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from octpcc import geometry, model, octree, pipeline
from octpcc.model import ContextModel, ModelConfig, TrainSchedule

import calibrate
from tracer import Probe


@dataclass(frozen=True)
class Cloud:
    kind: str
    points: int
    depth: int


@dataclass(frozen=True)
class Spec:
    config: ModelConfig
    coded: tuple                          # clouds coded every round, from `seed`
    setup_train: tuple = ()               # corpus trained during set-up, from `seed + 1`
    setup_schedule: Optional[TrainSchedule] = None
    round_train: tuple = ()               # corpus trained every round
    round_train_seed_offset: int = 0
    round_schedule: Optional[TrainSchedule] = None
    code_with_trained: bool = False       # code with the round's trained model


PLANE2 = Cloud("plane", 20000, 2)
PLANE5 = Cloud("plane", 20000, 5)
PLANE6 = Cloud("plane", 20000, 6)
LIDAR5 = Cloud("lidar_rings", 20000, 5)
LIDAR6 = Cloud("lidar_rings", 20000, 6)
LIDAR7 = Cloud("lidar_rings", 20000, 7)

SPECS = {
    "full": {
        # N=64 model trained in set-up: per-node cost is spread over model,
        # quantize_dist, coder, context and the driver loop.
        "codec-default": Spec(
            config=ModelConfig(), coded=(PLANE6, LIDAR7),
            setup_train=(PLANE6,), setup_schedule=TrainSchedule(1, 1)),
        # N=1024 model with seeded weights: attention over 1,024 slots is
        # nearly all of the codec time.  Depth 5 (about 270 nodes) keeps a
        # round near 4 s, so a run takes several samples.  The round also
        # trains a copy on a 7-node cloud (batches of 4 bound its memory)
        # to measure full-scale training cost.
        "codec-full": Spec(
            config=ModelConfig.full_scale(), coded=(LIDAR5,),
            round_train=(PLANE2,), round_train_seed_offset=1,
            round_schedule=TrainSchedule(1, 1, batch_size=4)),
        # The only workload whose rounds run the tape, backward and Adam,
        # then code the training clouds with the model just trained.  Depth 5
        # (about 800 nodes) keeps a training call near 2 s, so a run takes
        # several samples.
        "train-default": Spec(
            config=ModelConfig(), coded=(PLANE5, LIDAR5),
            round_train=(PLANE5, LIDAR5),
            round_schedule=TrainSchedule(branch_epochs=1, main_epochs=2),
            code_with_trained=True),
    },
}

_TINY_CLOUD = Cloud("plane", 2000, 4)
SPECS["tiny"] = {
    name: Spec(
        config=ModelConfig.tiny(),
        coded=(_TINY_CLOUD, Cloud("lidar_rings", 2000, 4)),
        setup_train=(_TINY_CLOUD,) if spec.setup_train else (),
        setup_schedule=TrainSchedule(1, 1) if spec.setup_schedule else None,
        round_train=(_TINY_CLOUD,) if spec.round_train else (),
        round_train_seed_offset=spec.round_train_seed_offset,
        round_schedule=TrainSchedule(1, 1) if spec.round_schedule else None,
        code_with_trained=spec.code_with_trained)
    for name, spec in SPECS["full"].items()
}



def _valid_rows(result) -> dict:
    """Valid slot rows and windows in one window (N,) or a window block (B, N)."""
    valid = result.valid if hasattr(result, "valid") else result[1]
    return {"slot_rows": int(valid.sum()),
            "windows": valid.shape[0] if valid.ndim > 1 else 1}


# Where each module calls into the next; see README.md for the metric map.
PROBES = (
    Probe("octpcc.pipeline", "encode", "pipeline.encode"),
    Probe("octpcc.pipeline", "decode", "pipeline.decode"),
    Probe("octpcc.pipeline", "quantize", "geometry.quantize"),
    Probe("octpcc.pipeline", "build", "octree.build"),
    Probe("octpcc.pipeline", "reconstruct", "octree.reconstruct"),
    Probe("octpcc.pipeline", "quantize_dist", "coder.quantize_dist"),
    Probe("octpcc.coder", "ArithmeticEncoder.encode", "coder.encode"),
    Probe("octpcc.coder", "ArithmeticEncoder.finish", "coder.encode"),
    Probe("octpcc.coder", "ArithmeticDecoder.decode", "coder.decode"),
    Probe("octpcc.coder", "Bitstream.from_bytes", "coder.bitstream_parse"),
    Probe("octpcc.context", "ContextAssembler.window", "context.window",
          counter=_valid_rows),
    Probe("octpcc.context", "GrowingContext.window", "context.window",
          counter=_valid_rows),
    Probe("octpcc.context", "GrowingContext.add_node", "context.add_node"),
    Probe("octpcc.context", "ContextAssembler.window_block",
          "context.window_block", opaque=True, counter=_valid_rows),
    Probe("octpcc.model", "ContextModel.predict", "model.predict"),
    Probe("octpcc.model", "ContextModel.batch_losses", "model.batch_losses"),
    Probe("octpcc.model", "train", "model.train"),
    Probe("octpcc.nn", "Tensor.backward", "nn.backward"),
    Probe("octpcc.nn", "adam_step", "nn.adam_step"),
    Probe("octpcc.nn", "checkpoint_digest", "nn.checkpoint_digest"),
    Probe("octpcc.nn", "save_checkpoint", "nn.checkpoint_io"),
    Probe("octpcc.nn", "load_checkpoint", "nn.checkpoint_io"),
)


@dataclass
class Input:
    cloud: Cloud
    pc: geometry.RawPointCloud
    reference: geometry.QuantizedPointCloud   # quantize(pc, depth)


@dataclass
class State:
    spec: Spec
    model: ContextModel
    coded: list
    round_corpus: list
    # us/node/epoch as measured and at reference speed
    train_samples: list = field(default_factory=list)
    train_ce: list = field(default_factory=list)        # bits/node
    checks: list = field(default_factory=list)          # (name, ok, detail)


@dataclass
class RoundResult:
    wall_s: float = 0.0
    # (cloud index, nodes, encode s, encode s at reference speed,
    #  decode s, decode s at reference speed)
    timings: list = field(default_factory=list)
    roundtrips: int = 0
    roundtrip_failures: int = 0
    train_calls: int = 0
    train_failures: int = 0
    total_bits: int = 0
    raw_points: int = 0
    payload_bits: int = 0
    ideal_bits: float = 0.0
    nodes: int = 0
    streams: list = field(default_factory=list)   # bytes per coded cloud
    tables_agree: Optional[bool] = None

    @property
    def bpip(self) -> Optional[float]:
        return self.total_bits / self.raw_points if self.raw_points else None


def _make_input(cloud: Cloud, seed: int) -> Input:
    pc = geometry.synth(cloud.kind, cloud.points, seed)
    return Input(cloud, pc, geometry.quantize(pc, cloud.depth))


def _sequences(clouds, seed: int) -> list:
    return [octree.build(geometry.quantize(geometry.synth(c.kind, c.points, seed),
                                           c.depth)) for c in clouds]


def _last_epoch_ce(trace, corpus, schedule: TrainSchedule) -> float:
    """Mean stage-2 cross-entropy per node over the last epoch, in bits."""
    sizes = [min(schedule.batch_size, len(seq) - start)
             for seq in corpus for start in range(0, len(seq), schedule.batch_size)]
    last = [rec for rec in trace if rec.stage == 2][-len(sizes):]
    return float(sum(rec.ce_loss * n for rec, n in zip(last, sizes)) / sum(sizes))


def timed(fn, *args, **kwargs):
    """(result, wall seconds, wall seconds at the calibration reference speed)."""
    before = calibrate.kernel_seconds()
    gc.collect()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - start
    kernel = (before + calibrate.kernel_seconds()) / 2
    return result, wall, calibrate.scaled(wall, kernel)


def timed_train(state: State, net: ContextModel, corpus, schedule) -> None:
    """One model.train call; records its us/node/epoch and last-epoch CE."""
    trace, wall, ref = timed(model.train, net, corpus, schedule)
    per = 1e6 / (sum(len(seq) for seq in corpus)
                 * (schedule.branch_epochs + schedule.main_epochs))
    state.train_samples.append((wall * per, ref * per))
    state.train_ce.append(_last_epoch_ce(trace, corpus, schedule))


def setup(spec: Spec, seed: int, workdir: str) -> State:
    """Inputs, model (trained if the spec says so) and one checkpoint save+load."""
    coded = [_make_input(c, seed) for c in spec.coded]
    round_corpus = _sequences(spec.round_train, seed + spec.round_train_seed_offset)
    net = ContextModel.create(spec.config)
    state = State(spec=spec, model=net, coded=coded, round_corpus=round_corpus)
    if spec.setup_train:
        timed_train(state, net, _sequences(spec.setup_train, seed + 1),
                    spec.setup_schedule)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = os.path.join(tmp, "model.ckpt")
        net.save(path)
        state.model = ContextModel.load(path)
    state.checks.append(("checkpoint round trip keeps the digest",
                         state.model.digest() == net.digest(), ""))
    return state


def run_round(state: State, log_tables: bool = False) -> RoundResult:
    """One round of the workload's work; failures are counted, never raised."""
    spec = state.spec
    res = RoundResult()
    start = time.perf_counter()
    coder_model = state.model
    if spec.round_train:
        net = ContextModel(state.model.cfg, state.model.params.copy())
        res.train_calls = 1
        try:
            timed_train(state, net, state.round_corpus, spec.round_schedule)
        except Exception as exc:  # a failed call is counted, not fatal
            res.train_failures = 1
            state.checks.append(("train call", False, repr(exc)))
        if spec.code_with_trained:
            coder_model = net
    for index, item in enumerate(state.coded):
        res.roundtrips += 1
        enc_log, dec_log = ([], []) if log_tables else (None, None)
        try:
            (bs, report), *enc = timed(
                pipeline.encode, item.pc, item.cloud.depth, item.cloud.depth,
                coder_model, table_log=enc_log)
            blob = bs.to_bytes()
            decoded, *dec = timed(pipeline.decode, blob, coder_model,
                                  table_log=dec_log)
        except Exception as exc:  # a failed call is counted, not fatal
            res.roundtrip_failures += 1
            state.checks.append((f"roundtrip {item.cloud}", False, repr(exc)))
            res.streams.append(None)
            continue
        if not decoded.same_voxels(item.reference):
            res.roundtrip_failures += 1
            state.checks.append((f"decode equals quantize(pc, depth) for "
                                 f"{item.cloud}", False, "voxels differ"))
        if log_tables:
            same = len(enc_log) == len(dec_log) and all(
                np.array_equal(a, b) for a, b in zip(enc_log, dec_log))
            res.tables_agree = same and res.tables_agree is not False
        nodes = report.node_count
        res.timings.append((index, nodes, *enc, *dec))
        res.total_bits += report.total_bits
        res.raw_points += report.raw_point_count
        res.payload_bits += report.payload_bits
        res.ideal_bits += report.ideal_bits
        res.nodes += nodes
        res.streams.append(blob)
    res.wall_s = time.perf_counter() - start
    return res

