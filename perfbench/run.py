"""octpcc benchmark: codec and training speed, rate, and a per-module trace.

    python3 perfbench/run.py --workload codec-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

Each workload runs in fresh worker processes (worker.py) with BLAS pinned
to one thread.  Untraced (--trace 0): SETUPS set-ups in separate processes,
the last of which then measures rounds for --seconds; prints every
end-to-end metric.  Traced (--trace 1): one process that traces its set-up
and alternates untraced and traced rounds; prints every per-layer metric.
Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  README.md documents every
metric.  Exit status is non-zero, with no result printed, when the program
cannot be set up (for example when src/ is missing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("codec-default", "codec-full", "train-default")
SETUPS = 5            # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0    # every worker of one run ends within this

END_TO_END = {
    "encode_us_per_node": "us/node",
    "decode_us_per_node": "us/node",
    "train_us_per_node_epoch": "us/node/epoch",
    "bpip": "bits/point",
    "train_ce_bits": "bits/node",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SELF_TIMES = (
    "model.predict", "model.batch_losses", "model.train",
    "nn.backward", "nn.adam_step", "nn.checkpoint_digest", "nn.checkpoint_io",
    "coder.quantize_dist", "coder.encode", "coder.decode",
    "coder.bitstream_parse",
    "context.window", "context.add_node", "context.window_block",
    "geometry.quantize", "octree.build", "octree.reconstruct",
    "pipeline.encode", "pipeline.decode",
)
PER_LAYER = {f"{name}.self_s": "s" for name in SELF_TIMES}
PER_LAYER.update({
    "model.predict.calls": "count",
    "context.window.slot_rows_per_node": "rows/node",
    "context.window_block.slot_rows_per_node": "rows/node",
    "coder.bits_per_node": "bits/node",
    "coder.payload_over_ideal": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.span_coverage": "ratio",
})


class WorkerFailed(RuntimeError):
    pass


def spawn(workload, seed, seconds, mode, size, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--size", size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=None if deadline is None
                              else max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker for {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else math.nan


def describe(samples) -> str:
    """Sample count, median, extremes, and the highest percentile with ten
    samples beyond it."""
    n = len(samples)
    text = (f"n={n}, median {median(samples):.6g}, min {min(samples):.6g}, "
            f"max {max(samples):.6g}")
    if n >= 20:
        p = math.floor(100 * (1 - 10 / n))
        text += f", p{p} {sorted(samples)[math.ceil(p / 100 * n) - 1]:.6g}"
    return text


def _per_node_calls(rounds, col) -> list:
    """us/node of every call, from column `col` of the round timings."""
    return [t[col] / t[1] * 1e6 for r in rounds for t in r["timings"]]


def _median_per_node(rounds, col) -> float:
    """Each cloud's median call, summed over the clouds, over their nodes."""
    calls, nodes = {}, {}
    for r in rounds:
        for t in r["timings"]:
            calls.setdefault(t[0], []).append(t[col])
            nodes[t[0]] = t[1]
    return sum(median(c) for c in calls.values()) / sum(nodes.values()) * 1e6


def describe_wall(wall, ref) -> str:
    """The as-measured samples behind a reference-speed timing."""
    return (f"at reference speed; as measured: {describe(wall)}; machine at "
            f"{median([w / r for w, r in zip(wall, ref)]):.3g}x reference")


class Result:
    def __init__(self):
        self.metrics, self.notes, self.failures = {}, {}, []
        self.attempted = self.failed = 0

    def put(self, name, value, note):
        self.metrics[name] = {"value": value,
                              "unit": END_TO_END.get(name) or PER_LAYER[name]}
        self.notes[name] = note

    def check(self, name, ok, detail=""):
        if not ok:
            self.failures.append(f"{name} {detail}".strip())

    def add_checks(self, checks):
        for name, ok, detail in checks:
            self.check(name, ok, detail)

    def same(self, name, values):
        """Deterministic figures must be identical wherever they are repeated."""
        self.check(f"{name} identical across repeats", len(set(values)) <= 1,
                   f"got {sorted(set(values))}")


def untraced(workload, seed, seconds, size, deadline) -> Result:
    res = Result()
    workers = [spawn(workload, seed, seconds, "setup", size, deadline)
               for _ in range(SETUPS - 1)]
    final = spawn(workload, seed, seconds, "measure", size, deadline)
    workers.append(final)
    rounds = final["rounds"]
    train = [v for w in workers for v in w["setup_train_us"]] + final["train_us"]
    setup_ce = [w["setup_train_ce"] for w in workers]
    res.same("set-up train_ce_bits", [tuple(c) for c in setup_ce])
    res.same("round train_ce_bits", final["train_ce"])
    ce = setup_ce[-1] + final["train_ce"]
    bpips = [r["bpip"] for r in rounds if r["bpip"] is not None]
    res.same("bpip", bpips)
    for w in workers:
        res.add_checks(w["checks"])
    trips = sum(r["roundtrips"] for r in rounds)
    trip_fail = sum(r["roundtrip_failures"] for r in rounds)
    res.attempted = (trips + sum(r["train_calls"] for r in rounds)
                     + sum(len(w["setup_train_us"]) for w in workers))
    res.failed = trip_fail + sum(r["train_failures"] for r in rounds)
    setups = [w["setup_s"] for w in workers]

    if any(r["timings"] for r in rounds):
        # timings rows: (cloud, nodes, encode s, encode s at reference speed,
        #                decode s, decode s at reference speed)
        for name, col in (("encode_us_per_node", 2), ("decode_us_per_node", 4)):
            res.put(name, _median_per_node(rounds, col + 1), describe_wall(
                _per_node_calls(rounds, col), _per_node_calls(rounds, col + 1)))
    if train:
        wall, ref = zip(*train)
        res.put("train_us_per_node_epoch", median(ref), describe_wall(wall, ref))
    if bpips:
        res.put("bpip", bpips[0], "over one round's clouds")
    if ce:
        res.put("train_ce_bits", ce[0], "last epoch, stage 2")
    res.put("setup_s", median(setups), describe(setups))
    res.put("peak_rss_mb", final["peak_rss_mb"], "measuring process")
    res.notes["roundtrip_fail_ratio"] = f"{trip_fail / trips if trips else math.nan} " \
        f"ratio ({trip_fail} of {trips} decodes)"
    res.env = final["env"]
    res.rounds = len(rounds)
    return res


def traced(workload, seed, seconds, size, deadline) -> Result:
    res = Result()
    w = spawn(workload, seed, seconds, "trace", size, deadline)
    rounds, traced_rounds = w["rounds"], w["traced_rounds"]
    res.add_checks(w["checks"])
    res.check("encoder and decoder table_log identical",
              all(r["tables_agree"] for r in traced_rounds))
    all_rounds = rounds + traced_rounds
    res.attempted = sum(r["roundtrips"] + r["train_calls"] for r in all_rounds)
    res.failed = sum(r["roundtrip_failures"] + r["train_failures"]
                     for r in all_rounds)

    absent = set(w["absent"])
    setup, per_round = w["setup_trace"], w["round_traces"]
    for name in SELF_TIMES:
        if name in absent:
            continue
        once = setup.get(name, {}).get("self_s", 0.0)
        each = median([t.get(name, {}).get("self_s", 0.0) for t in per_round])
        res.put(f"{name}.self_s", once + each,
                "one set-up plus the median traced round")
    if "model.predict" not in absent:
        calls = setup.get("model.predict", {}).get("calls", 0) + median(
            [t.get("model.predict", {}).get("calls", 0) for t in per_round])
        res.put("model.predict.calls", calls,
                "one set-up plus the median traced round")
    counts = [w["setup_counts"]] + w["round_counts"]
    for name in ("context.window", "context.window_block"):
        rows = sum(c.get(f"{name}.slot_rows", 0) for c in counts)
        windows = sum(c.get(f"{name}.windows", 0) for c in counts)
        if name not in absent and windows:
            res.put(f"{name}.slot_rows_per_node", rows / windows,
                    f"valid slot rows over {windows} windows")
    payload = sum(r["payload_bits"] for r in traced_rounds)
    nodes = sum(r["nodes"] for r in traced_rounds)
    ideal = sum(r["ideal_bits"] for r in traced_rounds)
    if nodes:
        res.put("coder.bits_per_node", payload / nodes,
                f"payload bits over {nodes} coded nodes")
        res.put("coder.payload_over_ideal", payload / ideal,
                "payload bits / model codelength")
    plain = median([r["wall_s"] for r in rounds])
    traced_wall = median(w["traced_wall_s"])
    res.put("trace.overhead_ratio", traced_wall / plain,
            f"{len(traced_rounds)} traced vs {len(rounds)} untraced rounds")
    res.put("trace.span_coverage", median(
        [c / t for c, t in zip(w["covered_s"], w["traced_wall_s"])]),
        "top-level span time / traced round wall time")
    res.absent = sorted(absent)
    res.env = w["env"]
    res.rounds = len(all_rounds)
    return res


def report(workload, seed, trace, res: Result) -> None:
    env = res.env
    print(f"== {workload}  seed {seed}  {'traced' if trace else 'untraced'}  "
          f"rounds {res.rounds}")
    print(f"   python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"threads {env['threads']}, nproc {env['nproc']}")
    for name, m in res.metrics.items():
        print(f"   {name:42s} {m['value']:.6g} {m['unit']}  ({res.notes[name]})")
    if not trace:
        print(f"   {'roundtrip_fail_ratio':42s} {res.notes['roundtrip_fail_ratio']}")
    for name in getattr(res, "absent", ()):
        print(f"   {name:42s} absent (probe target no longer exists)")
    for failure in res.failures:
        print(f"   CHECK FAILED: {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small model and clouds, for the smoke tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "octpcc", "__init__.py")):
        print(f"no octpcc sources under {ROOT}/src", file=sys.stderr)
        return 2

    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
        deadline = None
    else:
        jobs = [(args.workload, args.trace)]
        deadline = time.monotonic() + DEADLINE_S
    total = Result()
    for workload, trace in jobs:
        run = traced if trace else untraced
        try:
            res = run(workload, args.seed, args.seconds, args.size, deadline)
        except WorkerFailed as exc:
            print(exc, file=sys.stderr)
            return 1
        report(workload, args.seed, trace, res)
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, m in res.metrics.items():
            total.metrics[prefix + name] = m
        total.attempted += res.attempted
        total.failed += res.failed
        total.failures += res.failures
    print(json.dumps({"correct": not total.failures and total.failed == 0,
                      "attempted": max(total.attempted, 1),
                      "failed": total.failed, "metrics": total.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
