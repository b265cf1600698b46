"""Machine-speed calibration: a fixed numpy/Python kernel that uses no octpcc code.

On a shared machine the speed of a core changes for minutes at a time: a
fixed kernel took 13-14 ms in some 2-s windows and 19-20 ms in others, and
whole 30-s runs landed in either state.  Timing this kernel right before and
right after each measured call gives the machine's speed at that moment;
`scaled` converts the call's wall time to the speed at which the kernel takes
REFERENCE_S.  A change to octpcc moves only the call's own time.
"""

import time

import numpy as np

REFERENCE_S = 0.008

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(64, 480))
_W = _rng.normal(size=(480, 64))
_V = _rng.normal(size=(64, 255))


def kernel_seconds() -> float:
    """Wall time of 60 small-matmul/softmax/integer steps, like a codec node."""
    start = time.perf_counter()
    for _ in range(60):
        x = _X @ _W
        e = np.exp(x[-1] - x[-1].max())
        e /= e.sum()
        z = np.maximum(x, 0.0)[-1] @ _V
        int(np.floor(z * 3.0).astype(np.int64).sum())
    return time.perf_counter() - start


def scaled(wall_s: float, kernel_s: float) -> float:
    """Wall time converted to the reference speed."""
    return wall_s * REFERENCE_S / kernel_s
