"""syzkit benchmark: closed-loop runs of real CLI commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a syzkit checkout.  The seed generates the inputs
(workloads.py); the program only sees the generated ring, module and
complex files under .bench/work/.  One client in one fresh interpreter
(worker.py) runs the command list, starting each command when the previous
one has returned.  The list is sized to take about S seconds on the
reference machine, and it is the same for every run with the same seed.

--trace 0 reports the end-to-end metrics:
    cmds_per_s   commands per second over the whole list
    cmd_s_p50    median wall time of one command
    cmd_s_tail   wall time at the highest percentile with >= 10 samples beyond it
    setup_s      median over fresh interpreters of `import syzkit.cli` plus
                 building the CLI parser
    peak_rss_mb  peak resident memory of the worker process
and prints failed_frac (failed / attempted) with every failed command.
Times are calibrated to the reference machine's speed (calibrate.py); the
raw wall times are printed next to them.

--trace 1 runs the list untraced and then traced (tracer.py), checks that
every --machine stdout byte is the same, and reports the per-layer metrics
with the tracing overhead.  Spans are written to .bench/trace/.

Every output is checked (oracles.py); the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import oracles
import workloads
from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 9
BUDGET_S = 170.0
SETUP_CODE = ("import time; t = time.perf_counter(); import syzkit.cli; "
              "syzkit.cli.build_parser(); t = time.perf_counter() - t; "
              "from calibrate import snippet_seconds; print(t, snippet_seconds())")


class BenchError(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(int(env.get(var) or nproc), nproc))
    return env


def measure_setup(env, root, deadline):
    """(calibrated, raw) set-up seconds of SETUP_RUNS fresh interpreters,
    after one untimed warm-up that compiles the bytecode."""
    env = dict(env, PYTHONPATH=env["PYTHONPATH"] + os.pathsep + HERE)
    raw, snippets = [], []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=root,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"import syzkit failed:\n{proc.stderr.strip()}")
        if i:
            seconds, snippet = map(float, proc.stdout.split())
            raw.append(seconds)
            snippets.append(snippet)
    return [t * calibrate.REFERENCE_S / c for t, c in zip(raw, snippets)], raw


def run_worker(env, root, run_dir, commands, deadline, trace_path=None):
    cmd_file = os.path.join(run_dir, "commands.json")
    result_file = os.path.join(run_dir, "traced.json" if trace_path else "plain.json")
    with open(cmd_file, "w", encoding="utf-8") as fh:
        json.dump(commands, fh)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), cmd_file, result_file]
    if trace_path:
        argv += ["--trace", trace_path]
    try:
        proc = subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {BUDGET_S:.0f} s run budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    with open(result_file, encoding="utf-8") as fh:
        return json.load(fh)


def evaluate(commands, results, goldens):
    """(known defect failures, wrong or unexpected failures), each a list of
    (command id, problem)."""
    known, wrong = [], []
    for cmd, res in zip(commands, results):
        problems = oracles.check_command(cmd, res, goldens)
        if not problems:
            continue
        defect = cmd.get("known_defect")
        if res["rc"] != 0 and defect and defect in res["stderr"]:
            known.append((cmd["id"], problems[0]))
        else:
            wrong.append((cmd["id"], "; ".join(problems)))
    return known, wrong


def tail(times):
    """(value, percentile, samples): the highest percentile with at least ten
    samples above it; the maximum when there are ten samples or fewer."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    k = n - 10
    return s[k - 1], 100.0 * k / n, n


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "syzkit", "cli.py")):
        print("bench: src/syzkit not found; run from the root of a syzkit checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    work = os.path.join(".bench", "work", args.workload)
    run_dir = os.path.join(root, ".bench", "run", args.workload)
    for d in (work, run_dir):
        shutil.rmtree(os.path.join(root, d), ignore_errors=True)
        os.makedirs(os.path.join(root, d))
    commands = workloads.build(args.workload, args.seed, args.seconds, work)
    golden_file = os.path.join(HERE, "goldens", f"{args.workload}.json")
    goldens = {}
    if os.path.exists(golden_file):
        with open(golden_file, encoding="utf-8") as fh:
            goldens = json.load(fh)
    env = child_env(root)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        reasons = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}

    print(f"workload {args.workload}: seed {args.seed}, {len(commands)} commands in "
          f"{workloads.n_cycles(args.workload, args.seconds)} cycles, closed loop, 1 client")
    print(f"why: {reasons[args.workload]}")
    print(f"environment: nproc {len(os.sched_getaffinity(0))}, "
          f"python {platform.python_version()}, "
          f"BLAS threads {env['OPENBLAS_NUM_THREADS']}")
    try:
        if args.trace:
            plain = run_worker(env, root, run_dir, commands, deadline)
            trace_dir = os.path.join(root, ".bench", "trace")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(trace_dir, f"{args.workload}-s{args.seed}.npz")
            run = run_worker(env, root, run_dir, commands, deadline, trace_path)
        else:
            setup, setup_raw = measure_setup(env, root, deadline)
            run = run_worker(env, root, run_dir, commands, deadline)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(f"numpy {run['numpy']}")

    results = run["results"]
    known, wrong = evaluate(commands, results, goldens)
    mismatched = []
    if args.trace:
        mismatched = [c["id"] for c, a, b in zip(commands, plain["results"], results)
                      if a["stdout"] != b["stdout"]]
        wrong += [(cid, "traced stdout differs from the untraced run") for cid in mismatched]
    attempted = len(results)
    failed = len(known) + len(wrong)
    times = [r["seconds"] for r in results]
    print(f"failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} commands)")
    for cid, why in known:
        print(f"  failed (known defect): {cid}: {why}")
    for cid, why in wrong:
        print(f"  FAILED: {cid}: {why}")

    if args.trace:
        overhead = run["loop_seconds"] / plain["loop_seconds"] - 1.0
        values = dict(run["per_layer"], **{"trace.overhead_frac": overhead})
        print(f"traced {run['spans']} spans in {run['loop_seconds']:.3f} s, untraced "
              f"{plain['loop_seconds']:.3f} s: overhead {overhead:+.1%}; "
              f"stdout identical: {not mismatched}; spans in {os.path.relpath(trace_path, root)}")
        metrics = {}
        for name, unit, _ in PER_LAYER:
            metrics[name] = metric(values[name], unit)
            print(f"{name} = {values[name]:.6g} {unit}")
    else:
        raw = times
        times = [t * f for t, f in zip(raw, calibrate.factors([r["snippet_s"] for r in results]))]
        value, pct, n = tail(times)
        metrics = {
            "cmds_per_s": metric(attempted / sum(times), "1/s"),
            "cmd_s_p50": metric(statistics.median(times), "s"),
            "cmd_s_tail": metric(value, "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        }
        notes = {
            "cmds_per_s": f"raw {attempted / sum(raw):.6g} 1/s, {attempted} commands",
            "cmd_s_p50": f"raw {statistics.median(raw):.6g} s",
            "cmd_s_tail": f"raw {tail(raw)[0]:.6g} s; p{pct:.4g} of {n} samples, "
                          f"{min(10, n - 1)} beyond it",
            "setup_s": f"raw {statistics.median(setup_raw):.6g} s; median of {len(setup)}",
        }
        print("times are calibrated to the reference machine's speed (calibrate.py); "
              f"median speed factor {statistics.median(t / r for t, r in zip(times, raw)):.4g}")
        for name, m in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name} = {m['value']:.6g} {m['unit']}{note}")

    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
