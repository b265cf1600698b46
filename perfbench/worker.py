"""One workload in one fresh process; prints a JSON record as its last line.

Run by run.py, not by hand.  BLAS is pinned to one thread before numpy
loads (README.md gives the reason).

modes:
  setup    set up once; report set-up time and set-up training figures
  measure  set up, then rounds for --seconds with tracing off
  trace    traced set-up, then untraced and traced rounds alternating
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def environment() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _round_record(res) -> dict:
    return {
        "wall_s": res.wall_s, "timings": res.timings, "bpip": res.bpip,
        "roundtrips": res.roundtrips, "roundtrip_failures": res.roundtrip_failures,
        "train_calls": res.train_calls, "train_failures": res.train_failures,
        "payload_bits": res.payload_bits, "ideal_bits": res.ideal_bits,
        "nodes": res.nodes, "tables_agree": res.tables_agree,
    }


def _stream_checks(state, rounds) -> None:
    """Repeated encodes of one cloud must give byte-identical streams."""
    first = rounds[0].streams
    for res in rounds[1:]:
        for item, a, b in zip(state.coded, first, res.streams):
            if a is not None and b is not None and a != b:
                state.checks.append((f"repeated encodes of {item.cloud} are "
                                     "byte-identical", False, ""))


def _loop(seconds, run_round):
    """Rounds until the next one would end after `seconds`; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--size", default="full")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import octpcc  # noqa: F401  (timed: part of set-up)
    if os.path.dirname(os.path.abspath(octpcc.__file__)) != os.path.join(SRC, "octpcc"):
        raise SystemExit(f"octpcc imported from {octpcc.__file__}, not {SRC}")
    import workloads
    from tracer import Tracer

    spec = workloads.SPECS[args.size][args.workload]
    tracer = Tracer(workloads.PROBES)
    out = {"env": environment()}
    if args.mode == "trace":
        with tracer:
            state = workloads.setup(spec, args.seed, HERE)
        out["setup_trace"] = tracer.summary()
        out["setup_counts"] = dict(tracer.counts)
        tracer.reset()
    else:
        state = workloads.setup(spec, args.seed, HERE)
    out["setup_s"] = time.perf_counter() - t0
    setup_train = list(state.train_samples)
    out["setup_train_us"] = setup_train
    out["setup_train_ce"] = list(state.train_ce)

    rounds, traced = [], []
    if args.mode == "measure":
        def measured():
            res = workloads.run_round(state)
            out.setdefault("peak_rss_mb", _peak_rss_mb())
            return res

        rounds = _loop(args.seconds, measured)
    elif args.mode == "trace":
        def pair():
            rounds.append(workloads.run_round(state))
            with tracer:
                res = workloads.run_round(state, log_tables=True)
            res.trace = tracer.summary()
            res.counts = dict(tracer.counts)
            res.covered_s = tracer.top_level_seconds()
            tracer.reset()
            traced.append(res)

        _loop(args.seconds, pair)
        out["absent"] = tracer.absent
        out["round_traces"] = [r.trace for r in traced]
        out["round_counts"] = [r.counts for r in traced]
        out["traced_wall_s"] = [r.wall_s for r in traced]
        out["covered_s"] = [r.covered_s for r in traced]
    all_rounds = rounds + traced
    if all_rounds:
        _stream_checks(state, all_rounds)
    out["rounds"] = [_round_record(r) for r in rounds]
    out["traced_rounds"] = [_round_record(r) for r in traced]
    out["train_us"] = state.train_samples[len(setup_train):]
    out["train_ce"] = state.train_ce[len(setup_train):]
    out["checks"] = state.checks
    out.setdefault("peak_rss_mb", _peak_rss_mb())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(3)
