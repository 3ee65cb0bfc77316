"""Tests of the benchmark itself: generator, oracles, tracer and contract.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import calibrate
import oracles
import run
import workloads
from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _env():
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _snapshot(workload, seed, work):
    cmds = workloads.build(workload, seed, 1, str(work))
    files = {name: (work / name).read_text() for name in sorted(os.listdir(work))}
    return json.dumps(cmds).replace(str(work), "WORK"), files


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic(workload, tmp_path):
    first = _snapshot(workload, 7, tmp_path / "a")
    assert first == _snapshot(workload, 7, tmp_path / "b")
    assert first[1] != _snapshot(workload, 8, tmp_path / "c")[1]


def _fake(betti, window):
    stdout = (f"schema = syzkit.report.v1\ncommand = resolve\nwindow = {window}\n"
              f"betti = {','.join(map(str, betti))}\nminimal = true\n")
    return {"rc": 0, "stdout": stdout, "stderr": ""}


def test_oracle_catches_a_wrong_betti_list(tmp_path):
    cmds = workloads.build("syzygy-large", 0, 1, str(tmp_path))
    residue = next(c for c in cmds if "-k-c2-" in c["id"])
    cyclic = next(c for c in cmds if "-cyc3-c2-" in c["id"])
    for cmd, betti in ((residue, [1, 4, 8, 12, 16, 20, 24]), (cyclic, [1, 3, 4, 4, 4, 4, 4])):
        cmd = dict(cmd, golden=False)
        assert oracles.check_command(cmd, _fake(betti, 6), {}) == []
        planted = betti[:4] + [betti[4] + 1] + betti[5:]
        assert oracles.check_command(cmd, _fake(planted, 6), {})


def test_golden_mismatch_and_exit_codes_are_failures(tmp_path):
    cmd = dict(workloads.build("cli-mix", 0, 1, str(tmp_path))[0])
    good = {"rc": 0, "stdout": "schema = syzkit.report.v1\ncommand = resolve\n", "stderr": ""}
    assert oracles.check_command(cmd, good, {cmd["golden_key"]: good["stdout"]}) == []
    assert oracles.check_command(cmd, good, {cmd["golden_key"]: good["stdout"] + "x"})
    assert oracles.check_command(cmd, dict(good, rc=1, stderr="error: boom"), {})


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail([float(i) for i in range(1, 17)])
    assert (value, pct, n) == (6.0, 37.5, 16)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_calibration_factor_ignores_one_outlier():
    ref = calibrate.REFERENCE_S
    assert calibrate.factors([2 * ref] * 4) == [0.5] * 4
    assert calibrate.factors([ref, ref, 9 * ref, ref, ref]) == [1.0] * 5


def _worker(commands, tmp_path, name, trace=False):
    cmd_file, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out.json"
    cmd_file.write_text(json.dumps(commands))
    argv = [sys.executable, os.path.join(HERE, "worker.py"), str(cmd_file), str(out)]
    if trace:
        argv += ["--trace", str(tmp_path / f"{name}.npz")]
    subprocess.run(argv, env=_env(), cwd=ROOT, check=True, timeout=300)
    return json.loads(out.read_text())


def test_tracing_changes_no_stdout_and_every_layer_metric_is_seen(tmp_path):
    work = os.path.relpath(tmp_path / "work", ROOT)
    commands = workloads.build("cli-mix", 0, 1, work)
    commands += [c for c in workloads.build("construct", 0, 1, work)
                 if c["check"]["shifts"] == [1, 2]]
    commands += [c for c in workloads.build("syzygy-large", 0, 1, work)
                 if "-cyc3-c2-p32003" in c["id"]]
    plain = _worker(commands, tmp_path, "plain")
    traced = _worker(commands, tmp_path, "traced", trace=True)
    assert [r["stdout"] for r in traced["results"]] == [r["stdout"] for r in plain["results"]]
    assert all(r["rc"] == 0 for r in traced["results"])
    zero = [m for m, v in traced["per_layer"].items() if not v]
    assert zero == []


def test_traced_counts_repeat_exactly(tmp_path):
    work = os.path.relpath(tmp_path / "work", ROOT)
    commands = [c for c in workloads.build("cli-mix", 0, 1, work) if "readme" in c["id"]]
    first = _worker(commands, tmp_path, "first", trace=True)["per_layer"]
    second = _worker(commands, tmp_path, "second", trace=True)["per_layer"]
    counts = [m for m, unit, _ in PER_LAYER if unit in ("count", "bytes", "frac")
              and m != "trace.overhead_frac"]
    assert [first[m] for m in counts] == [second[m] for m in counts]


def test_benchmark_json_matches_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _, _ in PER_LAYER]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
