"""Rate and distortion metrics plus the inter-class context statistics.

The inter-class statistics quantify how separable the model's latent
representations are across the 255 occupancy classes: each class gets the
mean of the main MLP's first-layer activation over its nodes, and the bank
is summarized by the average pairwise Euclidean distance and the average
pairwise cosine similarity (ordered pairs, diagonal included).  Desk-scale
corpora never populate all 255 classes, so both averages normalize by the
squared count of classes actually present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InsufficientClasses, InvalidInput
from .geometry import QuantizedPointCloud, dequantize
from .model import ContextModel


@dataclass
class ClassFeatureBank:
    counts: np.ndarray  # (255,) int64 nodes seen per occupancy class
    means: np.ndarray   # (255, dim) float64; rows meaningful where counts > 0

    @property
    def classes_present(self) -> int:
        return int((self.counts > 0).sum())


@dataclass
class InterClassStats:
    ad: float    # average pairwise Euclidean distance
    acos: float  # average pairwise cosine similarity
    classes_present: int

    def to_text(self) -> str:
        return (f"ad = {self.ad:.6f}\nacos = {self.acos:.6f}\n"
                f"classes_present = {self.classes_present}\n")


def collect_features(model: ContextModel, corpus) -> ClassFeatureBank:
    """Per-class means of the first main-MLP layer output over a corpus."""
    if not corpus:
        raise InvalidInput("feature collection needs a non-empty corpus")
    dim = model.cfg.d_hidden_main
    sums = np.zeros((255, dim))
    counts = np.zeros(255, dtype=np.int64)
    for seq in corpus:
        _, a1 = model.distributions(seq)
        labels = seq.occupancy - 1
        np.add.at(sums, labels, a1)
        counts += np.bincount(labels, minlength=255)
    means = np.zeros_like(sums)
    present = counts > 0
    means[present] = sums[present] / counts[present, None]
    return ClassFeatureBank(counts=counts, means=means)


def interclass_stats(bank: ClassFeatureBank) -> InterClassStats:
    """Average pairwise distance / cosine over the present classes.

    Ordered pairs including the diagonal, normalized by the squared count
    of present classes.
    """
    present = bank.counts > 0
    m = int(present.sum())
    if m < 2:
        raise InsufficientClasses(f"{m} class(es) present; need at least 2")
    v = bank.means[present]
    deltas = v[:, None, :] - v[None, :, :]
    dists = np.sqrt((deltas ** 2).sum(axis=-1))
    ad = float(dists.sum() / (m * m))
    norms = np.linalg.norm(v, axis=1)
    outer = np.outer(norms, norms)
    dots = v @ v.T
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(outer > 0, dots / np.where(outer > 0, outer, 1.0), 0.0)
    acos = float(cos.sum() / (m * m))
    return InterClassStats(ad=ad, acos=acos, classes_present=m)


def _check_same_frame(a: QuantizedPointCloud, b: QuantizedPointCloud):
    if a.depth != b.depth:
        raise InvalidInput("clouds have different depths")
    if not (np.allclose(a.origin, b.origin) and np.isclose(a.scale, b.scale)):
        raise InvalidInput("clouds are not in the same coordinate frame")


def chamfer(a: QuantizedPointCloud, b: QuantizedPointCloud) -> float:
    """Symmetric mean squared nearest-neighbor distance, dequantized units."""
    _check_same_frame(a, b)
    pa = dequantize(a).points
    pb = dequantize(b).points
    d_ab = cKDTree(pb).query(pa)[0]
    d_ba = cKDTree(pa).query(pb)[0]
    return float(((d_ab ** 2).mean() + (d_ba ** 2).mean()) / 2.0)


def d1_psnr(a: QuantizedPointCloud, b: QuantizedPointCloud,
            depth: int = None) -> float:
    """Point-to-point geometry PSNR with peak 3*(2**depth - 1)**2 (voxel units).

    Identical clouds return the +inf sentinel.
    """
    _check_same_frame(a, b)
    depth = a.depth if depth is None else depth
    va = a.voxels.astype(np.float64)
    vb = b.voxels.astype(np.float64)
    d_ab = cKDTree(vb).query(va)[0]
    d_ba = cKDTree(va).query(vb)[0]
    mse = ((d_ab ** 2).mean() + (d_ba ** 2).mean()) / 2.0
    if mse == 0.0:
        return float("inf")
    peak = 3.0 * ((1 << depth) - 1) ** 2
    return float(10.0 * np.log10(peak / mse))


def bpip(total_bits: float, point_count: int) -> float:
    """Bits per input point."""
    if point_count < 1:
        raise InvalidInput("point count must be at least 1")
    return total_bits / point_count
