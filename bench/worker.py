"""Run a benchmark command list in one fresh interpreter, closed loop.

    python3 bench/worker.py COMMANDS.json RESULT.json [--trace SPANS.npz]

Each command is an in-process call to `syzkit.cli.main(argv + ["--machine"])`
with stdout and stderr captured; the next starts when the previous one has
returned.  After each command the calibration snippet is timed
(calibrate.py).  `syzkit` must be importable (the caller puts the checkout's
`src` on PYTHONPATH).  With --trace, the layer modules are wrapped first
(see tracer.py), the spans are written to SPANS.npz at the end and the
per-layer metrics go into RESULT.json.
"""

import argparse
import contextlib
import io
import json
import resource
import time
import traceback

import numpy
import syzkit.cli
from calibrate import snippet_seconds


def run_one(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = syzkit.cli.main(argv + ["--machine"])
    except SystemExit as exc:                     # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:                             # a raw failure is a result, not a crash
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return {"rc": rc, "seconds": seconds, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("commands")
    ap.add_argument("result")
    ap.add_argument("--trace", default=None)
    args = ap.parse_args()
    with open(args.commands, encoding="utf-8") as fh:
        commands = json.load(fh)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    loop_start = time.perf_counter()
    for i, cmd in enumerate(commands):
        if tracer is not None:
            tracer.begin_command(i)
        results.append(run_one(cmd["argv"]))
        results[-1]["snippet_s"] = snippet_seconds()
    loop_seconds = time.perf_counter() - loop_start
    report = {
        "results": results,
        "loop_seconds": loop_seconds,
        "numpy": numpy.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.save(args.trace)
        report["per_layer"] = tracer.metrics()
        report["spans"] = len(tracer.start)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
