import json
import os
import subprocess
import sys
import time

import syzkit
from syzkit import cli

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the worked examples of README.md, in order; their --machine output is
# pinned byte for byte by the goldens readme-0 .. readme-5
README_EXAMPLES = [
    "resolve fixtures/ci2_k.module --window 10",
    "depth-formula fixtures/hyp_ax.module fixtures/hyp_axy.module --window 8",
    "reduce fixtures/ci2_k.module --max-degree 2 --window 9",
    "construct fixtures/period1_x.complex fixtures/period1_y.complex --emit {out}",
    "construct fixtures/period1_x.complex fixtures/period4.complex",
    "period fixtures/period2.complex --window 10",
]


def run_cli(*args):
    # the child imports the same syzkit as this test process
    path = [os.path.dirname(os.path.dirname(syzkit.__file__)), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-m", "syzkit", *args],
        capture_output=True, text=True,
        cwd=os.path.dirname(FIXTURES) or ".",
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    return proc


def fx(name):
    return os.path.join(FIXTURES, name)


def test_resolve_residue_field_ci():
    out = run_cli("resolve", fx("ci2_k.module"), "--window", "10", "--machine")
    assert out.returncode == 0
    assert "betti = 1,2,3,4,5,6,7,8,9,10,11" in out.stdout
    assert "complexity = 2" in out.stdout


def test_resolve_free_module():
    out = run_cli("resolve", fx("ci2_free.module"), "--window", "6", "--machine")
    assert out.returncode == 0
    assert "betti = 1,0,0,0,0,0,0" in out.stdout
    assert "complexity = 0" in out.stdout
    assert "complexity_status = exact-finite-pd" in out.stdout


def test_resolve_golod_doubling():
    out = run_cli("resolve", fx("golod_k.module"), "--window", "10", "--machine")
    assert out.returncode == 0
    assert "betti = " + ",".join(str(2**i) for i in range(11)) in out.stdout


def test_depth_commands():
    assert "depth = 0" in run_cli("depth", fx("ci2_k.module"), "--machine").stdout
    assert "depth = 1" in run_cli("depth", fx("hyp_ax.module"), "--machine").stdout
    assert "depth = 2" in run_cli("depth", fx("s2_free.module"), "--machine").stdout


def test_tor_command():
    out = run_cli("tor", fx("hyp_axy.module"), fx("hyp_ax2.module"),
                  "--window", "6", "--machine")
    assert out.returncode == 0
    assert "q = 1" in out.stdout
    assert "q_rigor = finite-pd" in out.stdout
    assert "tor_1 = 2:1" in out.stdout


def test_depth_formula_q0():
    out = run_cli("depth-formula", fx("hyp_ax.module"), fx("hyp_axy.module"),
                  "--window", "8", "--machine")
    assert out.returncode == 0
    assert "lhs = 1" in out.stdout and "rhs = 1" in out.stdout
    assert "verdict = true" in out.stdout


def test_depth_formula_q1():
    out = run_cli("depth-formula", fx("hyp_axy.module"), fx("hyp_ax2.module"),
                  "--window", "8", "--machine")
    assert out.returncode == 0
    assert "q = 1" in out.stdout
    assert "verdict = true" in out.stdout


def test_reduce_command():
    out = run_cli("reduce", fx("ci2_k.module"), "--max-degree", "2",
                  "--window", "9", "--machine")
    assert out.returncode == 0
    assert "complexity_chain = 2,1,0" in out.stdout
    assert "all_ses_exact = true" in out.stdout


def test_construct_flagship_and_emit(tmp_path):
    emit = str(tmp_path / "out.module")
    out = run_cli("construct", fx("period1_x.complex"), fx("period1_y.complex"),
                  "--emit", emit, "--machine")
    assert out.returncode == 0
    assert "complexity_chain = 2,1,0" in out.stdout
    assert "ses_1_exact = true" in out.stdout and "ses_2_exact = true" in out.stdout
    assert "infinite_ci_witness = false" in out.stdout
    assert os.path.exists(emit) and os.path.exists(emit + ".ring")
    resolved = run_cli("resolve", emit, "--window", "8", "--machine")
    assert resolved.returncode == 0
    assert "betti = 1,2,3,4,5,6,7,8,9" in resolved.stdout


def test_construct_period_four_witness():
    out = run_cli("construct", fx("period1_x.complex"), fx("period4.complex"),
                  "--machine")
    assert out.returncode == 0
    assert "last_truncation_period = 4" in out.stdout
    assert "infinite_ci_witness = true" in out.stdout


def test_period_commands():
    one = run_cli("period", fx("period1_x.complex"), "--machine")
    assert "period = 1" in one.stdout
    two = run_cli("period", fx("period2.complex"), "--window", "10", "--machine")
    assert "period = 2" in two.stdout
    assert "below_1 = only-zero-map (rigorous=true)" in two.stdout
    none = run_cli("period", fx("acyclic.complex"), "--machine")
    assert "period = none" in none.stdout


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.module"
    bad.write_text("module { generators = [0]  oops }")
    out = run_cli("resolve", str(bad))
    assert out.returncode == 2


def test_exit_code_huge_characteristic(tmp_path, capsys):
    # the range is checked before primality, so a characteristic far above
    # 2^31 is refused at once
    (tmp_path / "big.ring").write_text(
        'ring { char = 1000000000000000003; vars = [x]; relations = ["x^2"] }')
    module = tmp_path / "big_k.module"
    module.write_text('module { ring = "big.ring"; generators = [0]; relations = [["x"]] }')
    start = time.perf_counter()
    assert cli.main(["resolve", str(module)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "characteristic must be a prime in [2, 2^31)" in capsys.readouterr().err


def test_exit_code_degree_bound():
    out = run_cli("resolve", fx("hyp_ax.module"), "--window", "12",
                  "--degree-bound", "8")
    assert out.returncode == 3


def test_exit_code_window():
    out = run_cli("resolve", fx("ci2_k.module"), "--window", "4")
    assert out.returncode == 4


def test_exit_code_depth_formula_window_zero():
    # window 0 computes no Tor_i with i >= 1; Tor_1(k, k) != 0, so a verdict
    # of Tor-independence there would be wrong
    out = run_cli("depth-formula", fx("ci2_k.module"), fx("ci2_k.module"),
                  "--window", "0", "--machine")
    assert out.returncode == 4
    assert out.stdout == ""
    assert "window >= 1" in out.stderr


def test_exit_code_tor_negative_window():
    out = run_cli("tor", fx("ci2_k.module"), fx("ci2_k.module"),
                  "--window", "-1", "--machine")
    assert out.returncode == 4
    assert out.stdout == ""
    assert "window >= 0" in out.stderr


def test_machine_mode_determinism():
    a = run_cli("resolve", fx("ci2_k.module"), "--window", "8", "--machine")
    b = run_cli("resolve", fx("ci2_k.module"), "--window", "8", "--machine")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0
    c = run_cli("depth-formula", fx("hyp_ax.module"), fx("hyp_axy.module"),
                "--window", "8", "--machine")
    d = run_cli("depth-formula", fx("hyp_ax.module"), fx("hyp_axy.module"),
                "--window", "8", "--machine")
    assert c.stdout == d.stdout


def test_exit_code_generic_error(tmp_path):
    # a module whose only generator is a relation is zero: SyzkitError, exit 1
    zero = tmp_path / "zero.module"
    zero.write_text('module { ring = "%s"; generators = [0]; relations = [["1"]] }'
                    % os.path.abspath(fx("hyp.ring")))
    out = run_cli("resolve", str(zero), "--window", "6")
    assert out.returncode == 1
    assert out.stderr.startswith("error: ")


def test_readme_examples_match_goldens_byte_for_byte(tmp_path, monkeypatch, capsys):
    with open(os.path.join(ROOT, "bench", "goldens", "cli-mix.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    monkeypatch.chdir(ROOT)
    out = str(tmp_path / "readme_out.module")
    for k, example in enumerate(README_EXAMPLES):
        assert cli.main(example.format(out=out).split() + ["--machine"]) == 0
        want = goldens[f"readme-{k}"]
        if "{out}" in example:
            want = "".join(
                f"emitted = {out}\n" if line.startswith("emitted = ") else line
                for line in want.splitlines(keepends=True)
            )
        assert capsys.readouterr().out == want, example


def test_reduce_example_computes_each_depth_once(monkeypatch, capsys):
    # M and the first pushout are resolved for their complexity estimate
    # and again for the class degree, the second pushout for its estimate;
    # each of the three lifts once for its depth, which the next step reuses
    import syzkit.homological as homological
    import syzkit.resolutions as resolutions

    with open(os.path.join(ROOT, "bench", "goldens", "cli-mix.json"), encoding="utf-8") as fh:
        want = json.load(fh)["readme-2"]
    calls = []
    real = resolutions.resolve

    def counted(module, n_max, *args, **kwargs):
        calls.append(n_max)
        return real(module, n_max, *args, **kwargs)

    monkeypatch.setattr(resolutions, "resolve", counted)
    monkeypatch.setattr(homological, "resolve", counted)
    monkeypatch.chdir(ROOT)
    assert cli.main(README_EXAMPLES[2].split() + ["--machine"]) == 0
    assert capsys.readouterr().out == want
    assert len(calls) == 8


def test_construct_memory_peak(monkeypatch, capsys):
    # the README period1_x (x) period4 construction; its peak was about
    # 1.1 MB, and dense induced matrices kept for reuse tripled it
    import tracemalloc

    monkeypatch.chdir(ROOT)
    tracemalloc.start()
    try:
        assert cli.main(README_EXAMPLES[4].split() + ["--machine"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 2.0 * 2**20
