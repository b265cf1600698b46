"""Lossless octree point cloud geometry codec with a learned entropy model."""

from .context import ContextConfig, ContextWindow
from .errors import (ConfigError, CorruptStream, InsufficientClasses,
                     InvalidInput, ModelMismatch, NumericalError, OctpccError,
                     ParseError)
from .geometry import (QuantizedPointCloud, RawPointCloud, dequantize,
                       quantize, read_ply, synth, write_ply)
from .metrics import (ClassFeatureBank, InterClassStats, bpip, chamfer,
                      collect_features, d1_psnr, interclass_stats)
from .model import (ContextModel, ModelConfig, TrainSchedule, loss_ce,
                    loss_mse, train, zero_head_layers)
from .octree import NodeSequence, build, occupancy_code, reconstruct
from .coder import Bitstream, FreqTable, quantize_dist
from .pipeline import EncodeReport, decode, encode

__version__ = "0.1.0"

__all__ = [
    "Bitstream", "ClassFeatureBank", "ConfigError", "ContextConfig",
    "ContextModel", "ContextWindow", "CorruptStream", "EncodeReport",
    "FreqTable", "InsufficientClasses", "InterClassStats", "InvalidInput",
    "ModelConfig", "ModelMismatch", "NodeSequence", "NumericalError",
    "OctpccError", "ParseError", "QuantizedPointCloud",
    "RawPointCloud", "TrainSchedule", "bpip", "build", "chamfer",
    "collect_features", "d1_psnr", "decode", "dequantize", "encode",
    "interclass_stats", "loss_ce", "loss_mse", "occupancy_code", "quantize",
    "quantize_dist", "read_ply", "reconstruct", "synth", "train",
    "write_ply", "zero_head_layers",
]
