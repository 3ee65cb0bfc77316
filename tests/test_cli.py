import json
import os
import subprocess
import sys
import time

import pytest

import syzkit
from syzkit import cli
from syzkit.io import read_module_file
from syzkit.resolutions import resolve

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
    assert "internal_bound = 14" in out.stdout


def test_tor_command_over_a_collapsed_ring_claims_no_truncation():
    # R = F_2[x]/(x^2) collapses at degree 2, within the bound 16
    out = run_cli("tor", fx("x1_k.module"), fx("x1_k.module"), "--window", "3", "--machine")
    assert out.returncode == 0
    assert "tor_3 = 3:1" in out.stdout and "internal_bound = inf" in out.stdout
    out = run_cli("tor", fx("x1_k.module"), fx("x1_k.module"), "--window", "3")
    assert "(every internal degree exact)" in out.stdout


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


def test_two_module_commands_refuse_different_rings_before_computing():
    # hyp_ax lives over hyp.ring, ci2_k over ci2.ring
    for command in ("tor", "depth-formula"):
        out = run_cli(command, fx("hyp_ax.module"), fx("ci2_k.module"), "--machine")
        assert out.returncode == 2
        assert out.stderr == "parse error: modules live over different rings\n"
        assert out.stdout == ""


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


@pytest.mark.parametrize("p", [3, 32003])
def test_construct_at_odd_characteristic_matches_characteristic_two(p, tmp_path):
    # period1_x and period1_y over F_p: the chain condition
    # eta_{j-1} x = -x eta_j makes eta's components alternate 1, -1, and the
    # maps induced on the product graded-commute with the sign -1
    for var in "xy":
        (tmp_path / f"{var}1.ring").write_text(
            f'ring {{ char = {p}; vars = [{var}]; relations = ["{var}^2"]; degree_bound = 16 }}\n')
        text = open(fx(f"period1_{var}.complex")).read()
        comps = ", ".join(["[]"] + [f'[["{(-1) ** (j + 1) % p}"]]' for j in range(1, 14)])
        text = text.replace(", ".join(["[]"] + ['[["1"]]'] * 13), comps)
        assert comps in text
        (tmp_path / f"period1_{var}.complex").write_text(text)
    odd = run_cli("construct", str(tmp_path / "period1_x.complex"),
                  str(tmp_path / "period1_y.complex"), "--machine")
    two = run_cli("construct", fx("period1_x.complex"), fx("period1_y.complex"), "--machine")
    assert odd.returncode == 0, odd.stderr
    assert odd.stdout == two.stdout.replace("char = 2\n", f"char = {p}\n")


@pytest.mark.parametrize("window", ["-3", "5"])
def test_construct_refuses_a_window_too_short_to_estimate_complexity(window, capsys):
    # the window given is the one used and printed: one below 6 cannot
    # estimate the transported modules' complexity and is refused (exit 4),
    # where it used to run at 8 and print the window it was given
    argv = ["construct", fx("period1_x.complex"), fx("period4.complex"), "--window", window,
            "--machine"]
    assert cli.main(argv) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "window too small: complexity estimation needs a window of at least 6\n"
    assert cli.main(argv[:-2] + ["6", "--machine"]) == 0
    assert "\nwindow = 6\n" in capsys.readouterr().out


def test_main_builds_one_parser_per_process(capsys):
    # main reuses one argparse tree; build_parser still builds a fresh one
    assert cli._parser() is cli._parser() is not cli.build_parser()
    for seed in ("3", "0"):
        assert cli.main(["period", fx("period2.complex"), "--window", "4", "--seed", seed,
                         "--machine"]) == 0
        assert f"\nseed = {seed}\n" in capsys.readouterr().out
    assert cli._parser.cache_info().misses == 1


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


def test_eta_with_more_components_than_terms_is_refused(tmp_path):
    # period2.complex has 13 terms: a 14th eta component is refused, not
    # dropped; a shorter list stays legal, since a component left out is zero
    text = open(fx("period2.complex")).read()
    (tmp_path / "hyp.ring").write_text(open(fx("hyp.ring")).read())
    cases = {"long": text.replace('[["1"]] ] }', '[["1"]], [["1"]] ] }'),
             "short": text.replace('[["1"]], [["1"]]', "[]").replace('[["1"]]', "[]")}
    out = {}
    for name, body in cases.items():
        (tmp_path / f"{name}.complex").write_text(body)
        out[name] = run_cli("period", str(tmp_path / f"{name}.complex"), "--machine")
    assert out["long"].returncode == 2
    assert "long.complex: eta has 14 components for 13 terms" in out["long"].stderr
    assert out["short"].returncode == 0, out["short"].stderr
    assert "period = 2" in out["short"].stdout


GOOD_RING = 'ring { char = 2; vars = [x, y]; relations = ["x^2", "y^2"] }'
GOOD_MODULE = 'module { ring = "r.ring"; generators = [0]; relations = [["x"], ["y"]] }'


@pytest.mark.parametrize("ring, module, error", [
    # read as the variables x and y
    ('ring { char = 2; vars = xy; relations = ["x^2", "y^2"] }', GOOD_MODULE,
     "r.ring: vars must be a list, got 'xy'"),
    # read as the generators [0, 1]
    (GOOD_RING, 'module { ring = "r.ring"; generators = "01"; relations = [] }',
     "m.module: generators must be a list, got '01'"),
    # read as the relation column (x, y) on two generators
    (GOOD_RING, 'module { ring = "r.ring"; generators = [0, 0]; relations = ["xy"] }',
     "m.module: entry 0 of relations must be a list, got 'xy'"),
    # read as char = 3
    ('ring { char = 2; vars = [x, y]; relations = ["x^2", "y^2"]; char = 3 }', GOOD_MODULE,
     "r.ring: duplicate key 'char'"),
])
def test_exit_code_scalar_for_a_list_or_a_repeated_key(tmp_path, capsys, ring, module, error):
    (tmp_path / "r.ring").write_text(ring)
    (tmp_path / "m.module").write_text(module)
    assert cli.main(["resolve", str(tmp_path / "m.module"), "--machine"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"parse error: {tmp_path}{os.sep}{error}\n"


def test_exit_code_complex_rows_must_be_lists(tmp_path, capsys):
    (tmp_path / "r.ring").write_text(GOOD_RING)
    for text, error in [
        ('modules = [0, 1]; differentials = [[["x"]]]', "entry 0 of modules must be a list"),
        ('modules = [[0], [1]]; differentials = [["x"]]',
         "entry 0 of differential 1 must be a list"),
        ('modules = [[0], [1], [2]]; differentials = [[["x"]], [["x"]]]; '
         'maps = { eta = { shift = 2; components = [[], [], "1"] } }',
         "eta component 2 must be a list"),
    ]:
        (tmp_path / "c.complex").write_text(f'complex {{ ring = "r.ring"; {text} }}')
        assert cli.main(["period", str(tmp_path / "c.complex")]) == 2
        assert f"c.complex: {error}, got " in capsys.readouterr().err


@pytest.mark.parametrize("ring, module, error", [
    # read as degree_bound = 12, the default
    ('ring { char = 2; vars = [x, y]; relations = ["x^2", "y^2"]; degre_bound = 4 }',
     GOOD_MODULE, "r.ring: unknown key 'degre_bound' in ring block "
                  "(expected char, vars, relations, degree_bound)"),
    # read as a module with no relations: betti = 1,0,0,... over F_2[x,y]/(x^2,y^2)
    (GOOD_RING, 'module { ring = "r.ring"; generators = [0]; relation = [["x"], ["y"]] }',
     "m.module: unknown key 'relation' in module block (expected ring, generators, relations)"),
])
def test_exit_code_unknown_key(tmp_path, capsys, ring, module, error):
    (tmp_path / "r.ring").write_text(ring)
    (tmp_path / "m.module").write_text(module)
    assert cli.main(["resolve", str(tmp_path / "m.module"), "--machine"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"parse error: {tmp_path}{os.sep}{error}\n"


def test_exit_code_maps_must_be_a_block_of_known_keys(tmp_path, capsys):
    # a list of maps, or a misspelt eta key, used to be dropped and the period searched for
    (tmp_path / "r.ring").write_text(GOOD_RING)
    cx = 'modules = [[0], [1], [2]]; differentials = [[["x"]], [["x"]]]; '
    for maps, error in [
        ('maps = [ eta = { shift = 2; components = [[], [], [["1"]]] } ]',
         "maps must be a block, got "),
        ('maps = { etta = { shift = 2 } }', "unknown key 'etta' in maps block (expected eta)"),
        ('maps = { eta = { shift = 2; component = [] } }',
         "unknown key 'component' in eta block (expected shift, twist, components)"),
    ]:
        (tmp_path / "c.complex").write_text(f'complex {{ ring = "r.ring"; {cx}{maps} }}')
        assert cli.main(["period", str(tmp_path / "c.complex"), "--machine"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"parse error: {tmp_path}{os.sep}c.complex: {error}")


def test_exit_code_reduce_max_degree_below_one(capsys):
    # no Ext degree to search: refused before M is resolved
    for bad in ("0", "-1"):
        assert cli.main(["reduce", fx("ci2_k.module"), "--max-degree", bad, "--machine"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: reduction search needs max_degree >= 1, got {bad}\n"


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


def test_exit_code_input_above_the_degree_bound(tmp_path, capsys):
    # a module relation or a differential entry of degree 5 under bound 4 is
    # not a parse error: it exits 3, naming the file and what was read
    (tmp_path / "r.ring").write_text(
        'ring { char = 3; vars = [x, y]; relations = ["x^2"]; degree_bound = 4 }')
    (tmp_path / "m.module").write_text(
        'module { ring = "r.ring"; generators = [0, 1]; relations = [["y^5", "y^4"]] }')
    (tmp_path / "c.complex").write_text(
        'complex { ring = "r.ring"; modules = [[0], [5]]; differentials = [[["y^5"]]] }')
    for argv, where in [(["resolve", str(tmp_path / "m.module")], "m.module: relations"),
                        (["period", str(tmp_path / "c.complex")], "c.complex: differential 1")]:
        assert cli.main(argv + ["--machine"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("degree bound exceeded: internal degree 5 exceeds degree bound 4 "
                           f"({tmp_path}{os.sep}{where})\n")


def test_exit_code_ring_relation_above_the_degree_bound(tmp_path, capsys):
    # k over F_3[x,y]/(x^5) has infinite projective dimension; under bound 4
    # the relation x^5 was dropped, so k was resolved over F_3[x,y] and
    # reported as exact-finite-pd (betti 1,2,1).  It exits 3, naming the
    # ring file, also where the bound comes from --degree-bound
    (tmp_path / "r.ring").write_text(
        'ring { char = 3; vars = [x, y]; relations = ["x^5"]; degree_bound = 4 }')
    (tmp_path / "k.module").write_text(
        'module { ring = "r.ring"; generators = [0]; relations = [["x"], ["y"]] }')
    m = str(tmp_path / "k.module")
    for extra, bound in [([], 4), (["--degree-bound", "3"], 3)]:
        assert cli.main(["resolve", m, "--window", "6", "--machine", *extra]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"degree bound exceeded: internal degree 5 exceeds degree bound "
                           f"{bound} ({tmp_path}{os.sep}r.ring: relations)\n")
    # read with room for x^5, k does not stop at step 2
    assert resolve(read_module_file(m, 12), 3).betti() == [1, 2, 2, 2]


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


def test_exit_code_depth_formula_q_beyond_the_window(tmp_path, capsys):
    # Tor_i(R/(x), R/(x)) over F_3[x]/(x^2) is nonzero for every i
    (tmp_path / "r.ring").write_text('ring { char = 3; vars = [x]; relations = ["x^2"] }')
    (tmp_path / "m.module").write_text(
        'module { ring = "r.ring"; generators = [0]; relations = [["x"]] }')
    m = str(tmp_path / "m.module")
    assert cli.main(["depth-formula", m, m, "--window", "6", "--machine"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: largest nonvanishing Tor index is not rigorous within the "
                       "window; raise the window\n")


def test_exit_code_ring_without_variables(tmp_path, capsys):
    (tmp_path / "r.ring").write_text("ring { char = 2; vars = []; relations = [] }")
    (tmp_path / "m.module").write_text(
        'module { ring = "r.ring"; generators = [0]; relations = [] }')
    m = str(tmp_path / "m.module")
    for command in (["resolve", m], ["depth", m], ["tor", m, m]):
        assert cli.main([*command, "--machine"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"parse error: {tmp_path}{os.sep}r.ring: "
                           "a polynomial ring needs at least one variable\n")


@pytest.mark.parametrize("char, relation, error", [
    (3, "3*x^2", "relation 2 is zero mod 3"),
    (5, "x^2 - x^2", "relation 2 is zero mod 5"),
    (5, "2", "relation 2 is a nonzero constant: a unit"),
])
def test_exit_code_zero_or_constant_relation(tmp_path, capsys, char, relation, error):
    # the refusal names the relation and its fault, not homogeneity
    (tmp_path / "r.ring").write_text(
        f'ring {{ char = {char}; vars = [x, y]; relations = ["y^2", "{relation}"] }}')
    (tmp_path / "m.module").write_text(
        'module { ring = "r.ring"; generators = [0]; relations = [["x"]] }')
    assert cli.main(["resolve", str(tmp_path / "m.module"), "--machine"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"parse error: {tmp_path}{os.sep}r.ring: {error}\n"


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


def test_negative_seed_is_refused_by_the_parser():
    # numpy's generators take only a nonnegative seed: the parser refuses
    # one below 0 with exit 2, before any work and without a traceback
    for args in (["reduce", "fixtures/ci2_k.module", "--max-degree", "2", "--window", "9",
                  "--seed", "-1"],
                 ["depth-formula", "fixtures/hyp_ax.module", "fixtures/hyp_axy.module",
                  "--window", "8", "--search-reduction", "--seed", "-2"]):
        out = run_cli(*args)
        assert out.returncode == 2, out.stderr
        assert f"argument --seed: must be a nonnegative integer, got {args[-1]}" in out.stderr
        assert "Traceback" not in out.stderr and out.stdout == ""


@pytest.mark.parametrize("workload", ["cli-mix", "construct", "syzygy-large"])
def test_seed_zero_commands_match_goldens_byte_for_byte(workload, tmp_path, monkeypatch, capsys):
    # cycle 0 of the benchmark's seed-0 list, in-process: every command with
    # a golden exits 0 and prints it; the goldens name the work directory
    # the benchmark writes its inputs to
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import workloads

    with open(os.path.join(ROOT, "bench", "goldens", f"{workload}.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    monkeypatch.chdir(ROOT)
    work = str(tmp_path)
    checked = 0
    for cmd in workloads.build(workload, 0, 1, work):
        want = goldens.get(cmd["golden_key"])
        rc = cli.main(cmd["argv"] + ["--machine"])
        out = capsys.readouterr().out
        if want is None:
            continue
        assert (rc, out) == (0, want.replace(os.path.join(".bench", "work", workload), work)), \
            cmd["id"]
        checked += 1
    assert checked, workload


def test_reduce_example_computes_each_depth_once(monkeypatch, capsys):
    # M and the first pushout are resolved for their complexity estimate
    # and again for the class degree, the second pushout for its estimate;
    # each of the three has its depth computed once, which the next step reuses
    import syzkit.homological as homological
    import syzkit.resolutions as resolutions

    with open(os.path.join(ROOT, "bench", "goldens", "cli-mix.json"), encoding="utf-8") as fh:
        want = json.load(fh)["readme-2"]
    calls = {"resolve": [], "depth": []}
    for name in calls:
        real = getattr(resolutions, name)

        def counted(module, *args, _real=real, _seen=calls[name], **kwargs):
            _seen.append(module)
            return _real(module, *args, **kwargs)

        monkeypatch.setattr(resolutions, name, counted)
        monkeypatch.setattr(homological, name, counted)
    monkeypatch.chdir(ROOT)
    assert cli.main(README_EXAMPLES[2].split() + ["--machine"]) == 0
    assert capsys.readouterr().out == want
    assert len(calls["resolve"]) == 5
    assert len(calls["depth"]) == 3


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


def test_a_degree_bound_below_one_is_refused_by_the_parser():
    # the bound given on the command line is refused as the option's own
    # error, not blamed on the ring file, which names a valid bound
    for args in (["resolve", "fixtures/ci2_k.module", "--degree-bound", "0"],
                 ["period", "fixtures/period2.complex", "--degree-bound", "0"],
                 ["resolve", "fixtures/ci2_k.module", "--degree-bound", "-3"]):
        out = run_cli(*args)
        assert out.returncode == 2, out.stderr
        assert f"argument --degree-bound: must be >= 1, got {args[-1]}" in out.stderr
        assert "parse error" not in out.stderr and ".ring" not in out.stderr
        assert "Traceback" not in out.stderr and out.stdout == ""
