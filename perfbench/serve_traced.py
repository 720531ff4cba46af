"""Run `modelmark serve` with spans around the gateway's calls.

    python3 perfbench/serve_traced.py SPANS.json serve --bind HOST:PORT ...

Installs the benchmark's wrappers and runs modelmark.cli.main with the
remaining arguments in a worker thread. The main thread waits in short
joins, so the SIGTERM that stops the server is handled promptly whichever
thread the kernel delivers it to; the spans are then written to SPANS.json.
PYTHONPATH must name the checkout's src directory.
"""

import signal
import sys
import threading

from modelmark import cli

import tracing


def _terminate(signum, frame):
    raise SystemExit(0)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.wrap(cli, "main", "cli.main")
    signal.signal(signal.SIGTERM, _terminate)
    worker = threading.Thread(target=cli.main, args=(argv,), daemon=True)
    worker.start()
    try:
        while worker.is_alive():
            worker.join(0.2)
    finally:
        tracer.dump(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
