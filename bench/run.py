"""Seeded benchmark of the keyedge CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scene_solve --seed 1 --seconds 20 --trace 0

One client in a closed loop: a fresh worker interpreter (bench/worker.py)
imports keyedge from ./src and runs one CLI operation at a time through
keyedge.cli.main(argv).  After each operation, outside its timed section,
this process checks the outputs against computations made apart from the
program (bench/checks.py).  Whole rounds of the workload's operations run
until their summed time reaches --seconds.

The host's speed drifts by tens of percent over seconds to minutes, for
every process alike.  A calibrator interpreter therefore times a fixed
pure-Python kernel after every operation and every set-up probe, and each
time is reported in seconds at the speed where that kernel takes
CAL_REF_S; the wall-clock figures go to the summary.

The last line of standard output is one JSON object with correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced worker with --trace 1.  A human summary goes
to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

SETUP_PROBES = 8  # spread over the run, so that host speed drift is sampled
# Times are scaled by CAL_REF_S / (calibration time next to them), so a
# reported second is one at the speed where worker.calibrate() takes
# CAL_REF_S, about its time in a fresh interpreter on a quiet 2-vCPU Xeon.
CAL_REF_S = 0.020
OP_TIMEOUT_S = 120.0
WALL_LIMIT_S = 150.0  # stop starting rounds past this, to end well within 180 s
BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
# per-layer count metric -> (tracer counter, unit)
COUNTS = {
    "dataio.write_jsonl.bytes": ("dataio.write_jsonl.bytes", "bytes"),
    "dataio.read_jsonl.bytes": ("dataio.read_jsonl.bytes", "bytes"),
    "recovery.solve_tuple.calls": ("recovery.solve_tuple", "count"),
    "recovery.tuples_skipped": ("recovery.tuples_skipped", "count"),
    "metrics.iou_2d.calls": ("metrics.iou_2d", "count"),
    "metrics.true_positives": ("metrics.true_positives", "count"),
}


class WorkerError(RuntimeError):
    pass


class Child:
    """An interpreter running bench/worker.py in one of its roles, spoken to over stdin/stdout."""

    def __init__(self, root: Path, *flags: str):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *flags],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.setup_s = self.receive()["ready"] - started

    def send(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def receive(self, timeout: float = OP_TIMEOUT_S) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise WorkerError("worker ended or timed out without answering")
        return json.loads(line)

    def ask(self, obj) -> dict:
        self.send(obj)
        return self.receive()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def measure_setup(root: Path) -> float:
    probe = Child(root, "--probe")
    try:
        return probe.setup_s
    finally:
        probe.close()


def evaluate(op: workloads.Op, rc: int) -> tuple[list[str], list[str]]:
    """(problems, fault) of one finished operation.

    Either list fails the operation; problems also make the run incorrect,
    while fault holds what a known fault of the program explains.
    """
    if rc != 0:
        return [f"{op.argv[0]}: exit code {rc}"], []
    problems = op.check()
    return problems, (op.fault() if op.fault is not None and not problems else [])


def layer_metrics(trace: dict, rounds: int, objects_per_s: float, scale: float) -> dict:
    """Per-round self times (scaled like the operations' times) and counts of a traced run."""
    counts, calls, self_s = trace["counts"], trace["calls"], trace["self_s"]
    out = {f"{name}.s": (self_s.get(name, 0.0) * scale / rounds, "s") for name in tracing.SPANNED}
    out["cli.self_s"] = (self_s.get(tracing.ROOT, 0.0) * scale / rounds, "s")
    for metric, (counter, unit) in COUNTS.items():
        out[metric] = (counts.get(counter, 0) / rounds, unit)
    for name in ("uncertainty.fuse", "metrics.match_detections"):
        out[name + ".calls"] = (calls.get(name, 0) / rounds, "count")
    tuples = counts.get("recovery.tuples", 0)
    out["recovery.solve_tuple.per_tuple"] = (
        counts.get("recovery.solve_tuple", 0) / tuples if tuples else 0.0, "ratio")
    out["trace.objects_per_s"] = (objects_per_s, "1/s")
    return out


def run(args, root: Path, work: Path) -> dict:
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    calibrator = Child(root, "--calibrate")
    worker = Child(root)
    try:
        def calibrate() -> float:
            return calibrator.ask({})["cal"]

        cals = [calibrate()]  # cals[i] lies between operations i - 1 and i
        setup = [(worker.setup_s, cals[0])]  # (set-up time, calibration right after it)
        worker.send({"ops": [op.argv for op in wl.ops], "trace": bool(args.trace),
                     "log": str(work / "cli.log")})
        started = time.perf_counter()
        rounds = attempted = failed = objects = 0
        measured = 0.0
        dts: list[float] = []  # operation times in the order they ran
        problems: list[str] = []
        correct = True
        while measured < args.seconds and time.perf_counter() - started < WALL_LIMIT_S:
            for i, op in enumerate(wl.ops):
                answer = worker.ask({"run": i})
                cals.append(calibrate())
                measured += answer["dt"]
                dts.append(answer["dt"])
                objects += op.objects
                attempted += 1
                found, fault = evaluate(op, answer["rc"])
                if found or fault:
                    failed += 1
                    problems.extend(found + fault)
                correct = correct and not found
            rounds += 1
            if len(setup) <= SETUP_PROBES * measured / args.seconds:
                # while the worker waits
                setup.append((measure_setup(root), calibrate()))
        final = worker.ask({"run": None})
        worker.proc.wait(timeout=30)
    finally:
        worker.close()
        calibrator.close()

    # Each operation is scaled by the mean of the calibrations on either side of it.
    calibrated = sum(dt * 2.0 * CAL_REF_S / (c0 + c1) for dt, c0, c1 in zip(dts, cals, cals[1:]))
    objects_per_s = objects / calibrated
    setup_s = statistics.median(s * CAL_REF_S / c for s, c in setup)
    if args.trace:
        metrics = layer_metrics(final["trace"], rounds, objects_per_s, calibrated / measured)
    else:
        metrics = {
            "objects_per_s": (objects_per_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (final["peak_rss_mb"], "MB"),
        }
    summary = {
        "workload": args.workload, "seed": args.seed, "inputs": wl.inputs, "rounds": rounds,
        "host_speed": round(CAL_REF_S / statistics.median(cals), 4),
        "wall_objects_per_s": round(objects / measured, 2),
        "wall_setup_s": round(statistics.median(s for s, _ in setup), 4),
        "op_median_s": {f"{i}:{op.argv[0]}": round(statistics.median(dts[i::len(wl.ops)]), 4)
                        for i, op in enumerate(wl.ops)},
        "setup_samples_s": [round(s, 4) for s, _ in setup],
        "figures": wl.figures,
        "problems": sorted(set(problems))[:5],
    }
    if args.trace:
        summary["spans"] = sorted(final["trace"]["edges"], key=lambda e: (str(e[0]), e[1]))
    print(json.dumps(summary), file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that cleanup below runs
    # One CPU for this process and every interpreter it starts: only one of
    # them works at a time, and the calibrator then sees the contention the
    # worker sees.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 64-bit integer")

    root = Path.cwd()
    if not (root / "src" / "keyedge" / "cli.py").is_file():
        print(f"error: no keyedge sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, root, work)
    except WorkerError as err:
        log = work / "cli.log"
        tail = log.read_text(encoding="utf-8")[-2000:] if log.exists() else ""
        print(f"error: {err}\n{tail}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
