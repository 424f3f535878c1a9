"""Spans and counts at the public functions of the keyedge modules.

install() replaces each traced function under every name by which a
keyedge module looks it up: keyedge.cli imports names directly,
keyedge.uncertainty calls recovery.solve_tuple through the module, and
keyedge.metrics calls its own iou_2d, match_detections and arde.  A span
records its name and its parent; on exit it adds its self time (its
duration less the time its child spans cover) to its name, so nothing
grows with the number of calls.  Fine-grained functions are counted
without a span.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

MODULES = ("cli", "dataio", "geometry", "indexing", "recovery", "uncertainty", "metrics")

SPANNED = (
    "dataio.generate_scene", "geometry.project_keyedges", "dataio.perturb_heights",
    "dataio.ratio_sigmas", "dataio.object_record", "dataio.write_jsonl", "dataio.read_jsonl",
    "dataio.record_tuples", "dataio.record_ratio_sigmas", "indexing.object_centric_tuples",
    "recovery.solve_all", "uncertainty.depth_partials", "uncertainty.propagate_sigma",
    "uncertainty.fuse", "metrics.match_detections", "metrics.arde", "metrics.arde_by_viewing_angle",
    "dataio.parse_label_file", "dataio.parse_calib", "dataio.labels_to_ground_truth",
)
COUNTED = ("recovery.solve_tuple", "metrics.iou_2d")
ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, time covered by child spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.edges: Counter = Counter()  # (parent, child) -> calls
        self.counts: Counter = Counter()

    def run(self, name, fn, args, kwargs, hook=None):
        parent = self.stack[-1][0] if self.stack else None
        frame = [name, 0.0]
        self.stack.append(frame)
        result, raised = None, True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            self.self_s[name] += elapsed - frame[1]
            if self.stack:
                self.stack[-1][1] += elapsed
            self.calls[name] += 1
            self.edges[(parent, name)] += 1
            if hook is not None:
                hook(self, args, result, raised)

    def span(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            return self.run(name, fn, args, kwargs, hook)
        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
        }


def _solve_all_hook(tracer, args, result, raised):
    tracer.counts["recovery.tuples"] += len(args[0])
    # solve_all raises when no tuple survives
    tracer.counts["recovery.tuples_skipped"] += len(args[0]) if raised else len(result[1])


def _match_hook(tracer, args, result, raised):
    # true positives of the overall matching, not of the per-bin reruns
    if not raised and [frame[0] for frame in tracer.stack] == [ROOT, "metrics.arde"]:
        tracer.counts["metrics.true_positives"] += sum(row.is_tp for row in result)


def _bytes_hook(name):
    def hook(tracer, args, result, raised):
        if not raised:
            tracer.counts[name] += os.path.getsize(args[0])
    return hook


HOOKS = {
    "recovery.solve_all": _solve_all_hook,
    "metrics.match_detections": _match_hook,
    "dataio.write_jsonl": _bytes_hook("dataio.write_jsonl.bytes"),
    "dataio.read_jsonl": _bytes_hook("dataio.read_jsonl.bytes"),
}


def install(package) -> Tracer:
    """Wrap the traced functions of an imported keyedge package in place."""
    tracer = Tracer()
    modules = [getattr(package, name) for name in MODULES]
    for qualname in SPANNED + COUNTED:
        module_name, attr = qualname.split(".")
        original = getattr(getattr(package, module_name), attr)
        if qualname in SPANNED:
            wrapper = tracer.span(qualname, original, HOOKS.get(qualname))
        else:
            wrapper = tracer.counter(qualname, original)
        bound = 0
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{qualname} is bound nowhere")
    return tracer
