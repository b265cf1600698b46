import numpy as np
import pytest

from octpcc import nn
from octpcc.geometry import RawPointCloud
from octpcc.model import ContextModel, ModelConfig

# Checkpoint configs that must not load: (keys to drop, keys to set).
MALFORMED_CONFIGS = {
    "missing_heads": (("heads",), {}),
    "two_attention_layers": ((), {"attn_layers": 2}),
    "layer_norm_on": ((), {"layer_norm": True}),
    "ill_typed_width": ((), {"d_model": 16.0}),
    "width_disagrees_with_tensors": ((), {"d_model": 32}),
    "heads_do_not_divide_width": ((), {"heads": 5}),
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


def write_malformed_checkpoint(path, case):
    """A tiny model's tensors saved under a config edited as `case` says."""
    drop, changes = MALFORMED_CONFIGS[case]
    model = ContextModel.create(ModelConfig.tiny(seed=1))
    config = {k: v for k, v in model.cfg.to_dict().items() if k not in drop}
    config.update(changes)
    nn.save_checkpoint(path, model.params, config)
