import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import octpcc
from octpcc import nn
from octpcc.coder import FREQ_TOTAL, ArithmeticEncoder
from octpcc.context import ContextConfig
from octpcc.geometry import RawPointCloud
from octpcc.model import ContextModel, ModelConfig

# Checkpoint configs that must not load: (keys to drop, keys to set).
MALFORMED_CONFIGS = {
    "missing_heads": (("heads",), {}),
    "two_attention_layers": ((), {"attn_layers": 2}),
    "layer_norm_on": ((), {"layer_norm": True}),
    "max_depth_not_21": ((), {"max_depth": 4}),
    "ill_typed_width": ((), {"d_model": 16.0}),
    "width_disagrees_with_tensors": ((), {"d_model": 32}),
    "heads_do_not_divide_width": ((), {"heads": 5}),
    "negative_seed": ((), {"seed": -1}),
    "window_past_int64": ((), {"n_window": 10**30}),
    "strict_level_on": ((), {"strict_level": True}),
}

# Model configs on which the codec's cached step must reproduce the batched
# forward and the decoder the encoder's tables: every residual/branch
# variant, a window of the target alone (no history slot, no ancestor), and
# the default N=64 window, over which the test clouds (at least 3N nodes)
# make a K/V cache sized for 2N-1 nodes compact at least twice.
FORWARD_CONFIGS = {
    "residual+branch": ModelConfig.tiny(),
    "residual": ModelConfig.tiny(enable_branch=False),
    "branch": ModelConfig.tiny(enable_residual=False),
    "plain": ModelConfig.tiny(enable_residual=False, enable_branch=False),
    "target_only": ModelConfig.tiny(ctx=ContextConfig(n_window=1, k_ancestors=0)),
    "default_size": ModelConfig(),
}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_cloud(rng, n=200, box=1.0) -> RawPointCloud:
    return RawPointCloud(rng.uniform(-box, box, size=(n, 3)))


def brute_force_octree_counts(voxels, depth):
    """Independent octree construction: per-level node counts via prefix sets."""
    counts = []
    for lvl in range(1, depth + 1):
        shift = depth - lvl + 1
        cells = {(int(x) >> shift, int(y) >> shift, int(z) >> shift)
                 for x, y, z in voxels}
        counts.append(len(cells))
    return counts


def brute_force_level_occupancies(voxels, depth, lvl):
    """occupancy per level-`lvl` node keyed by its cell, computed by sets."""
    shift_cell = depth - lvl + 1
    shift_child = depth - lvl
    table = {}
    for x, y, z in voxels:
        cell = (int(x) >> shift_cell, int(y) >> shift_cell, int(z) >> shift_cell)
        child = (int(x) >> shift_child, int(y) >> shift_child, int(z) >> shift_child)
        octant = ((child[0] & 1) << 2) | ((child[1] & 1) << 1) | (child[2] & 1)
        table[cell] = table.get(cell, 0) | (1 << octant)
    return table


def run_python(args, cwd, timeout=120) -> subprocess.CompletedProcess:
    """A fresh interpreter running `args`, with this octpcc importable."""
    src = str(Path(octpcc.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path})


def grad(loss_fn, params: nn.ParamStore, inputs) -> dict:
    """Reverse-mode gradients of loss_fn(tape, inputs) for every parameter.

    loss_fn receives a dict of name -> Tensor and must return a scalar
    Tensor built from the ops in `octpcc.nn`.
    """
    tape = params.tape()
    loss = loss_fn(tape, inputs)
    loss.backward()
    return {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in tape.items()}


def write_malformed_checkpoint(path, case):
    """A tiny model's tensors saved under a config edited as `case` says."""
    drop, changes = MALFORMED_CONFIGS[case]
    model = ContextModel.create(ModelConfig.tiny(seed=1))
    config = {k: v for k, v in model.cfg.to_dict().items() if k not in drop}
    config.update(changes)
    nn.save_checkpoint(path, model.params, config)


def v1_layout_stream(version=1, payload=b"\x5a") -> bytes:
    """A stream in the version-1 layout: the header without its checksum."""
    header = struct.pack("<4sHBBddddQQQ32sBQ", b"OPCB", version, 4, 4, 0.0,
                         0.0, 0.0, 0.5, 10, 10, 20, bytes(32), 3, len(payload))
    return header + payload


def payload_past_the_table(tables, occupancy):
    """(payload, k): a payload that codes the first k occupancy symbols,
    for the first k > 0 after which range is no multiple of 2**16, so that
    the next step's table leaves [r * 2**16, range) unused, then puts the
    stream's value there, where no encoder puts it."""
    enc = ArithmeticEncoder()
    for k, (table, sym) in enumerate(zip(tables, occupancy)):
        if k and enc._range % FREQ_TOTAL and enc._low + enc._range < 1 << 64:
            break
        enc.encode(table, int(sym) - 1)
    sliver = enc._low + (enc._range >> 16 << 16)
    return bytes(enc._out) + sliver.to_bytes(8, "big"), k
