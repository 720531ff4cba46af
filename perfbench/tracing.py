"""Spans recorded from outside the program, around calls into its modules.

`install` replaces public functions of modelmark's modules with wrappers
that record one span per call: name, start, end, parent span, and a few
attributes (rows in a batch, a digest of the input image, CPU seconds, bytes
read). Spans stay in memory and are written out when the run ends. The
program's source is not touched.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import resource
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from modelmark import acpt, gateway, ledger, media, pcpt, phash, tinynn


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, attrs)
        self.enabled = True
        self.branch_of = None  # set by the workload: authorize args -> "auth" | "unauth"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Record a span per call of owner.attr.

        before(args) returns state computed ahead of the call; after(state,
        result) returns the span's attributes.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            state = before(args) if before else None
            stack.append(span_id)
            result = None
            t0 = time.monotonic_ns()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                t1 = time.monotonic_ns()
                stack.pop()
                attrs = after(state, result) if after else None
                tracer.spans.append((span_id, name, t0, t1, parent, attrs))

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path: Path, **extra) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, **extra}))


def _rows(args) -> int:
    model, x = args[0], np.asarray(args[1])
    return int(x.shape[0]) if x.ndim == len(model.input_shape) + 1 else 1


def _digest(img) -> str:
    arr = np.ascontiguousarray(img)
    return hashlib.blake2b(arr.tobytes() + str(arr.shape).encode(), digest_size=8).hexdigest()


def read_rchar() -> int:
    with open("/proc/self/io", "rb") as fh:
        for line in fh.read().splitlines():
            if line.startswith(b"rchar:"):
                return int(line.split()[1])
    raise OSError("no rchar in /proc/self/io")


def install(tracer: Tracer) -> None:
    """Wrap the public functions each layer metric is taken from."""
    rows = lambda state, result: {"rows": state}  # noqa: E731
    tracer.wrap(
        tinynn, "train", "tinynn.train",
        before=lambda a: (len(a[1]) * a[2].epochs, time.process_time()),
        after=lambda s, r: {"images": s[0], "cpu_s": time.process_time() - s[1]},
    )
    tracer.wrap(tinynn, "predict", "tinynn.predict", before=_rows, after=rows)
    tracer.wrap(tinynn, "forward", "tinynn.forward", before=_rows, after=rows)
    tracer.wrap(tinynn, "load_model", "tinynn.load_model")
    tracer.wrap(
        phash, "phash_image", "phash.phash_image",
        before=lambda a: _digest(a[0]), after=lambda s, r: {"input": s},
    )
    for fn in ("decode_y4m", "select_triggers", "to_model_input", "decode_base64_image"):
        tracer.wrap(media, fn, f"media.{fn}")
    for fn in ("embed_watermark", "trigger_inputs", "trace"):
        tracer.wrap(pcpt, fn, f"pcpt.{fn}")
    tracer.wrap(
        acpt, "authorize", "acpt.authorize",
        before=lambda a: tracer.branch_of(a) if tracer.branch_of else None,
        after=lambda s, r: {"branch": s} if s else None,
    )
    tracer.wrap(
        acpt, "detector_accepts", "acpt.detector_accepts",
        before=lambda a: _digest(a[1]), after=lambda s, r: {"input": s},
    )
    tracer.wrap(acpt, "trace_acpt", "acpt.trace_acpt")
    try:
        base = read_rchar()
        empty = read_rchar() - base  # what reading /proc/self/io itself adds
        append_before, append_after = (
            lambda a: read_rchar(),
            lambda s, r: {"read_bytes": read_rchar() - s - empty},
        )
    except OSError:
        append_before = append_after = None
    tracer.wrap(ledger.OwnershipLedger, "append", "ledger.append", before=append_before, after=append_after)
    for fn in ("verify_chain", "earliest_claim", "verify_ownership"):
        tracer.wrap(ledger.OwnershipLedger, fn, f"ledger.{fn}")
    tracer.wrap(
        gateway.GatewayService, "_handle_line", "gateway.handle_line", after=_request_attrs
    )


def _request_attrs(state, result) -> dict:
    """Request id, plus the serving process's CPU seconds and involuntary switches so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "rid": result.get("request_id") if isinstance(result, dict) else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "nivcsw": usage.ru_nivcsw,
    }


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

# (name, unit, better). Counts named *.calls are per workload round (onboard,
# investigate) or per request (gateway); everything else covers the whole run.
PER_LAYER = [
    ("tinynn.train.img_per_s", "img/s", "higher"),
    ("tinynn.train.cpu_per_wall", "ratio", "lower"),
    ("tinynn.predict.rows_per_call", "rows", "higher"),
    ("tinynn.predict.us_per_row", "us", "lower"),
    ("tinynn.forward.calls", "count", "lower"),
    ("tinynn.forward.rows_per_call", "rows", "higher"),
    ("tinynn.forward.us_per_row", "us", "lower"),
    ("tinynn.load_model.ms", "ms", "lower"),
    ("phash.phash_image.calls", "count", "lower"),
    ("phash.phash_image.us_per_call", "us", "lower"),
    ("phash.phash_image.distinct_share", "share", "higher"),
    ("media.decode_y4m.ms", "ms", "lower"),
    ("media.select_triggers.ms", "ms", "lower"),
    ("media.to_model_input.calls", "count", "lower"),
    ("media.to_model_input.us_per_call", "us", "lower"),
    ("media.decode_base64_image.us_per_call", "us", "lower"),
    ("pcpt.embed_watermark.s", "s", "lower"),
    ("pcpt.trigger_inputs.ms", "ms", "lower"),
    ("acpt.authorize.calls", "count", "lower"),
    ("acpt.authorize.us_per_call", "us", "lower"),
    ("acpt.authorize.branch_gap_us", "us", "lower"),
    ("acpt.detector_accepts.calls", "count", "lower"),
    ("acpt.detector_accepts.us_per_call", "us", "lower"),
    ("acpt.detector_accepts.distinct_share", "share", "higher"),
    ("ledger.verify_chain.calls", "count", "lower"),
    ("ledger.verify_chain.ms", "ms", "lower"),
    ("ledger.append.read_bytes", "bytes", "lower"),
    ("ledger.earliest_claim.ms", "ms", "lower"),
    ("gateway.server.busy_share", "share", "lower"),
    ("gateway.wire_ms", "ms", "lower"),
    ("gateway.auth_gap_ms", "ms", "lower"),
    ("process.cpu_per_wall", "ratio", "lower"),
    ("process.invol_ctx_switches", "1/s", "lower"),
]


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _covered_us(spans: list) -> float:
    """Wall time, in microseconds, during which at least one of the spans was open."""
    total = 0
    end = None
    for _, _, t0, t1, _, _ in sorted(spans, key=lambda s: s[2]):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total / 1e3


def layer_metrics(spans: list, windows: list[tuple[int, int]], units: int, server_only: bool,
                  traffic: list[tuple[int, int]], responses: list, process: dict) -> dict[str, float]:
    """Per-layer figures from the run's spans (in-process, and server side with negative ids).

    *.calls count the spans that start inside `windows` (monotonic ns),
    server-side ones only when `server_only`, per one of `units`; traffic
    holds the windows in which callers sent requests; responses are
    (rid, kind, latency_ms).
    """
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def dur(span) -> float:
        return (span[3] - span[2]) / 1e3  # microseconds

    def of(name: str) -> list:
        return by_name.get(name, [])

    def calls_per_unit(name: str) -> float:
        n = sum(
            1 for s in of(name) if (s[0] < 0 or not server_only) and any(a <= s[2] < b for a, b in windows)
        )
        return _ratio(n, units)

    def us_per(name: str, attr: str | None = None) -> float:
        spans_ = of(name)
        den = sum(s[5][attr] for s in spans_) if attr else len(spans_)
        return _ratio(sum(dur(s) for s in spans_), den)

    def distinct(name: str) -> float:
        spans_ = of(name)
        return _ratio(len({s[5]["input"] for s in spans_}), len(spans_))

    train = of("tinynn.train")
    handle = {s[5]["rid"]: s for s in of("gateway.handle_line") if s[5] and s[5].get("rid")}
    kind_of = {rid: kind for rid, kind, _ in responses}
    branch = {}
    for s in of("acpt.authorize"):
        if s[5] and s[5].get("branch"):
            branch[s[0]] = s[5]["branch"]
    parents = {s[0]: s for s in of("gateway.handle_line")}
    for s in of("acpt.authorize"):
        parent = parents.get(s[4])
        if parent and parent[5] and parent[5].get("rid") in kind_of:
            branch[s[0]] = "auth" if kind_of[parent[5]["rid"]] == "auth" else "unauth"
    authorize = {s[0]: dur(s) for s in of("acpt.authorize")}
    traffic_wall = sum(b - a for a, b in traffic) / 1e3
    busy = _covered_us([s for s in of("gateway.handle_line") if any(a <= s[2] < b for a, b in traffic)])
    latency = {rid: ms for rid, _, ms in responses}

    return {
        "tinynn.train.img_per_s": _ratio(sum(s[5]["images"] for s in train), sum(dur(s) for s in train) / 1e6),
        "tinynn.train.cpu_per_wall": _ratio(sum(s[5]["cpu_s"] for s in train), sum(dur(s) for s in train) / 1e6),
        "tinynn.predict.rows_per_call": _ratio(sum(s[5]["rows"] for s in of("tinynn.predict")), len(of("tinynn.predict"))),
        "tinynn.predict.us_per_row": us_per("tinynn.predict", "rows"),
        "tinynn.forward.calls": calls_per_unit("tinynn.forward"),
        "tinynn.forward.rows_per_call": _ratio(sum(s[5]["rows"] for s in of("tinynn.forward")), len(of("tinynn.forward"))),
        "tinynn.forward.us_per_row": us_per("tinynn.forward", "rows"),
        "tinynn.load_model.ms": _median(dur(s) / 1e3 for s in of("tinynn.load_model")),
        "phash.phash_image.calls": calls_per_unit("phash.phash_image"),
        "phash.phash_image.us_per_call": us_per("phash.phash_image"),
        "phash.phash_image.distinct_share": distinct("phash.phash_image"),
        "media.decode_y4m.ms": _median(dur(s) / 1e3 for s in of("media.decode_y4m")),
        "media.select_triggers.ms": _median(dur(s) / 1e3 for s in of("media.select_triggers")),
        "media.to_model_input.calls": calls_per_unit("media.to_model_input"),
        "media.to_model_input.us_per_call": us_per("media.to_model_input"),
        "media.decode_base64_image.us_per_call": us_per("media.decode_base64_image"),
        "pcpt.embed_watermark.s": _median(dur(s) / 1e6 for s in of("pcpt.embed_watermark")),
        "pcpt.trigger_inputs.ms": _median(dur(s) / 1e3 for s in of("pcpt.trigger_inputs")),
        "acpt.authorize.calls": calls_per_unit("acpt.authorize"),
        "acpt.authorize.us_per_call": us_per("acpt.authorize"),
        "acpt.authorize.branch_gap_us": _median(authorize[i] for i, b in branch.items() if b == "auth")
        - _median(authorize[i] for i, b in branch.items() if b == "unauth"),
        "acpt.detector_accepts.calls": calls_per_unit("acpt.detector_accepts"),
        "acpt.detector_accepts.us_per_call": us_per("acpt.detector_accepts"),
        "acpt.detector_accepts.distinct_share": distinct("acpt.detector_accepts"),
        "ledger.verify_chain.calls": calls_per_unit("ledger.verify_chain"),
        "ledger.verify_chain.ms": _median(dur(s) / 1e3 for s in of("ledger.verify_chain")),
        "ledger.append.read_bytes": _median(s[5]["read_bytes"] for s in of("ledger.append") if s[5]),
        "ledger.earliest_claim.ms": _median(dur(s) / 1e3 for s in of("ledger.earliest_claim")),
        "gateway.server.busy_share": _ratio(busy, traffic_wall),
        "gateway.wire_ms": _median(latency[rid] - dur(s) / 1e3 for rid, s in handle.items() if rid in latency),
        "gateway.auth_gap_ms": _median(ms for _, kind, ms in responses if kind == "auth")
        - _median(ms for _, kind, ms in responses if kind != "auth"),
        "process.cpu_per_wall": process["cpu_per_wall"],
        "process.invol_ctx_switches": process["invol_ctx_switches"],
    }


def server_usage(spans: list, windows: list[tuple[int, int]]) -> dict:
    """Server CPU per wall second and involuntary switches per second while callers sent requests.

    Each request span carries the server's cumulative usage at its end; the
    first and last request of each traffic window bound that window.
    """
    cpu = switches = secs = 0.0
    for start, end in windows:
        marks = sorted(
            (s[3], s[5]["cpu_s"], s[5]["nivcsw"])
            for s in spans
            if s[1] == "gateway.handle_line" and s[5] and start <= s[2] < end
        )
        if len(marks) >= 2:
            secs += (marks[-1][0] - marks[0][0]) / 1e9
            cpu += marks[-1][1] - marks[0][1]
            switches += marks[-1][2] - marks[0][2]
    return {"cpu_per_wall": cpu / secs if secs else 0.0, "invol_ctx_switches": switches / secs if secs else 0.0}
