"""The interpreters that bench/run.py starts.

Started from the root of a checkout, in one of three roles:

- worker (no flag): imports keyedge from ./src, reports when keyedge.cli is
  ready, then runs the operations it is told to, one at a time, through
  keyedge.cli.main(argv);
- --probe: reports when keyedge.cli is ready and exits, for the set-up time;
- --calibrate: imports nothing of keyedge and times calibrate() on request,
  for the host's speed at that moment.  It is a process of its own, with a
  heap that never changes, so what the program does to its own heap cannot
  move the calibration.

Protocol, one JSON object per line:

    role -> run.py    {"ready": <perf_counter once keyedge.cli is imported>}
    run.py -> worker  {"ops": [argv, ...], "trace": bool, "log": path}
    run.py -> worker  {"run": i}          worker -> run.py  {"rc": int, "dt": seconds}
    run.py -> worker  {"run": null}       worker -> run.py  {"peak_rss_mb": ..., "trace": ...}
    run.py -> calibrator  {}              calibrator -> run.py  {"cal": seconds}
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path


def calibrate(n: int = 50_000) -> float:
    """Seconds taken by a fixed piece of pure-Python work (20 to 40 ms here).

    Float arithmetic, small dicts and a JSON round trip, like the program's
    own per-object work.
    """
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(n):
        x = math.sin(i * 1e-3) * 3.0 + 1.0
        rec = {"x": x, "y": x * x, "z": math.sqrt(abs(x)) + 1.0}
        table[i & 255] = rec
        acc += rec["x"] / rec["z"]
    json.loads(json.dumps(list(table.values())))
    return time.perf_counter() - start


def _send(stream, obj) -> None:
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def _calibrator() -> int:
    _send(sys.stdout, {"ready": time.perf_counter()})
    for _ in sys.stdin:
        _send(sys.stdout, {"cal": calibrate()})
    return 0


def main() -> int:
    if "--calibrate" in sys.argv[1:]:
        return _calibrator()
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import keyedge
    import keyedge.cli as cli

    ready = time.perf_counter()
    if Path(keyedge.__file__).resolve().parent != (src / "keyedge").resolve():
        print(f"keyedge was imported from {keyedge.__file__}, not from {src}", file=sys.stderr)
        return 2
    proto_in, proto_out = sys.stdin, sys.stdout
    _send(proto_out, {"ready": ready})
    if "--probe" in sys.argv[1:]:
        return 0

    plan = json.loads(proto_in.readline())
    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.install(keyedge)
    with open(plan["log"], "w", encoding="utf-8") as log:
        sys.stdout = sys.stderr = log  # the CLI's own messages
        for line in proto_in:
            index = json.loads(line)["run"]
            if index is None:
                break
            argv = plan["ops"][index]
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.run(tracing.ROOT, cli.main, (argv,), {})
            except Exception:  # an operation that crashes is a failed operation, not a lost run
                traceback.print_exc(file=log)
                rc = -1
            elapsed = time.perf_counter() - start
            log.flush()
            _send(proto_out, {"rc": rc, "dt": elapsed})
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _send(proto_out, {"peak_rss_mb": peak_kb / 1024.0,
                      "trace": tracer.report() if tracer is not None else None})
    return 0


if __name__ == "__main__":
    sys.exit(main())
