"""modelmark benchmark: one run of one workload.

    python3 perfbench/run.py --workload onboard|investigate|gateway \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src. A run
sets up a full deployment three times (setup_s is their median), then
runs whole rounds of the workload's mix until --seconds have passed. It
checks every output and prints, as the last stdout line, one JSON object
with `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
with --trace 0, per-layer metrics with --trace 1). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("onboard", "investigate", "gateway")
SETUPS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("train_img_per_s", "img/s"),
    ("onboard_s_per_user", "s"),
    ("register_ms", "ms"),
    ("trace_s", "s"),
    ("acpt_trace_s", "s"),
    ("claim_ms", "ms"),
    ("req_p50_ms", "ms"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> None:
    """Import modelmark from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "modelmark" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src}")
    sys.path.insert(0, str(src))
    import modelmark

    if Path(modelmark.__file__).resolve().parent != (src / "modelmark").resolve():
        raise SystemExit(f"error: modelmark imported from {modelmark.__file__}, not {src}")


def tail_line(latencies_ms: list[float]) -> str:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(latencies_ms)
    ordered = sorted(latencies_ms)
    best = None
    for q in (0.9, 0.99, 0.999):
        if n * (1 - q) >= 10:
            best = q
    if best is None:
        return f"request latency: {n} samples, too few for a tail percentile"
    value = ordered[min(n - 1, int(best * n))]
    return f"request latency p{best * 100:g}: {value:.3f} ms over {n} requests"


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind through the finally below, which stops the servers, on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    import_program()
    import checks
    import ops
    import tracing
    from world import stop_server

    runs_dir = HERE / "_runs"
    work = runs_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.install(tracer)
    run = ops.Run(tracer)
    ops.meter_training(run)
    deps = []
    setup_s = []
    try:
        for i in range(SETUPS):
            t0 = time.perf_counter()
            deps.append(ops.build_deployment(run, args.seed, work / f"setup{i}", ROOT, bool(args.trace)))
            setup_s.append(time.perf_counter() - t0)
            if i < SETUPS - 1:
                stop_server(deps[-1])
        dep = deps[-1]

        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        started = time.monotonic()
        deadline = started + args.seconds
        while not run.rounds or time.monotonic() < deadline:
            ops.workload_round(run, dep, args.workload)
        wall = time.monotonic() - started
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        for d in deps:
            stop_server(d)
        if tracer:
            tracer.enabled = False

        problems = checks.check_run(run, deps)
        if args.workload == "gateway":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        s = run.samples
        e2e = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_kb / 1024.0,
            "train_img_per_s": sum(s["train_images"]) / sum(s["train_s"]),
            "onboard_s_per_user": statistics.median(s["onboard_s"]),
            "register_ms": statistics.median(s["register_ms"]),
            "trace_s": statistics.median(s["trace_s"]),
            "acpt_trace_s": statistics.median(s["acpt_trace_s"]),
            "claim_ms": statistics.median(s["claim_ms"]),
            "req_p50_ms": statistics.median(s["req_ms"]),
        }
        print(f"workload {args.workload}, seed {args.seed}: {len(run.rounds)} rounds in {wall:.2f} s, "
              f"set-up {', '.join(f'{x:.2f}' for x in setup_s)} s")
        print(tail_line(s["req_ms"]))
        # Not an end-to-end metric: its spread between runs exceeds any bound
        # the benchmark may set (see README).
        print(f"request rate: {len(s['req_ms']) / run.traffic_s:.1f} req/s over {run.traffic_s:.2f} s of traffic")
        for name, unit in END_TO_END:
            print(f"  {name:<20} {e2e[name]:12.4f} {unit}")
        for line in run.errors[:20]:
            print(f"failed: {line}", file=sys.stderr)
        for line in problems[:20]:
            print(f"check: {line}", file=sys.stderr)

        runs_dir.mkdir(exist_ok=True)
        if tracer:
            metrics = traced_metrics(args, run, dep, tracer, e2e, wall, usage0, usage1, runs_dir)
        else:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
            (runs_dir / f"result-{args.workload}-s{args.seed}.json").write_text(json.dumps(e2e))
    finally:
        for d in deps:
            stop_server(d)
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def traced_metrics(args, run, dep, tracer, e2e, wall, usage0, usage1, runs_dir) -> dict:
    import tracing

    spans = list(tracer.spans)
    if dep.server_spans and dep.server_spans.exists():
        # Server span ids are negated so they cannot collide with in-process ones.
        spans += [
            (-i, name, t0, t1, None if parent is None else -parent, attrs)
            for i, name, t0, t1, parent, attrs in json.loads(dep.server_spans.read_text())["spans"]
        ]
    responses = [(rid, kind, (t1 - t0) / 1e6) for rid, kind, _, t0, t1, _ in run.out["responses"]]
    if args.workload == "gateway":
        windows, units = run.traffic_windows, len(responses)
        process = tracing.server_usage(spans, run.traffic_windows)
    else:
        windows, units = run.rounds, len(run.rounds)
        cpu = (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime)
        process = {"cpu_per_wall": cpu / wall, "invol_ctx_switches": (usage1.ru_nivcsw - usage0.ru_nivcsw) / wall}
    layers = tracing.layer_metrics(
        spans, windows, units, args.workload == "gateway", run.traffic_windows, responses, process
    )

    print(f"tracing: {len(spans)} spans, {len(tracer.spans)} of them in-process")
    untraced = runs_dir / f"result-{args.workload}-s{args.seed}.json"
    if untraced.exists():
        ref = json.loads(untraced.read_text())
        print("tracing overhead against the last untraced run with this seed:")
        for name, unit in END_TO_END:
            if ref.get(name):
                print(f"  {name:<20} {e2e[name]:12.4f} vs {ref[name]:12.4f} {unit} ({(e2e[name] / ref[name] - 1) * 100:+.1f}%)")
    else:
        print(f"tracing overhead: run --trace 0 --seed {args.seed} first to compare")
    out = runs_dir / f"spans-{args.workload}-s{args.seed}.json"
    tracer.dump(out, server=[list(s) for s in spans[len(tracer.spans):]], end_to_end=e2e)
    print(f"spans written to {out.relative_to(ROOT)}")
    units_of = {name: unit for name, unit, _ in tracing.PER_LAYER}
    for name, value in layers.items():
        print(f"  {name:<40} {value:14.4f} {units_of[name]}")
    return {name: {"value": value, "unit": units_of[name]} for name, value in layers.items()}


if __name__ == "__main__":
    sys.exit(main())
