"""Acceptance suite: one test per criterion, each printing a PASS line.

All quantities are integers over prime fields; every comparison is exact.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import os
import random
import subprocess
import sys

import pytest

import syzkit
from syzkit.construction import (
    corollary_module,
    detect_complex_periodicity,
    run_construction,
)
from syzkit.complexes import FreeComplex
from syzkit.homological import check_depth_formula, reduction_search, tor
from syzkit.modules import (
    free_module,
    module_from_presentation,
    module_from_strings,
    residue_field,
)
from syzkit.resolutions import depth, resolve
from syzkit.rings import ring_from_strings
from test_complexes import periodic_variable_complex
from test_depth import proj_dim
from test_modules import dims
from test_rings import polynomial_extension

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run_cli(*args):
    # the child imports the same syzkit as this test process
    path = [os.path.dirname(os.path.dirname(syzkit.__file__)), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, "-m", "syzkit", *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )


def passed(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_resolution_growth_three_rings():
    r1 = ring_from_strings(2, ["x"], ["x^2"], degree_bound=12)
    assert resolve(residue_field(r1), 20).betti() == [1] * 21

    r2 = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"], degree_bound=12)
    assert resolve(residue_field(r2), 15).betti() == [i + 1 for i in range(16)]

    r3 = ring_from_strings(2, ["x", "y"], ["x^2", "x*y", "y^2"], degree_bound=12)
    assert resolve(residue_field(r3), 12).betti() == [2**i for i in range(13)]
    passed(1, "Betti growth 1, i+1, 2^i over the three model rings, exactly")


def _random_module_over(ring, rng):
    while True:
        ngens = rng.randint(1, 2)
        gens = sorted(rng.randint(0, 1) for _ in range(ngens))
        ncols = rng.randint(0, 2)
        cols = []
        for _ in range(ncols):
            rdeg = rng.randint(1, 3)
            col = []
            for g in gens:
                d = rdeg - g
                f = {}
                if d >= 0:
                    for mono in ring.base.monomial_basis(d):
                        c = rng.randrange(ring.char)
                        if c:
                            f[mono] = c
                col.append(f)
            cols.append(col)
        m = module_from_presentation(ring, gens, cols)
        if not m.is_zero():
            return m


def test_criterion_02_auslander_buchsbaum_randomized():
    checked = 0
    for p in (2, 3, 5):
        ring = ring_from_strings(p, ["x", "y"], [], degree_bound=12)
        rng = random.Random(100 + p)
        for _ in range(7):
            m = _random_module_over(ring, rng)
            report = depth(m)
            assert report.depth + report.pd_ambient == 2, (p, m.gen_degrees)
            checked += 1
    assert checked >= 20
    passed(2, f"depth + pd = 2 on {checked} random modules over F_p[x,y], p in 2,3,5")


def test_criterion_03_tor_symmetry_randomized():
    total = 0
    for params in [
        (2, ["x", "y"], ["x^2", "y^2"], 12),
        (3, ["x", "y"], ["x*y"], 16),
    ]:
        ring = ring_from_strings(params[0], params[1], params[2], degree_bound=params[3])
        rng = random.Random(2024 + params[0])
        for _ in range(10):
            m = _random_module_over(ring, rng)
            n = _random_module_over(ring, rng)
            a = tor(m, n, 10)
            b = tor(n, m, 10)
            assert a.dims == b.dims, (params[0], m.gen_degrees, n.gen_degrees)
            total += 1
    assert total >= 20
    passed(3, f"graded Tor symmetry up to degree 10 on {total} random pairs")


def _criterion4_instance(bound=14):
    ring = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=bound)
    m = module_from_strings(ring, [0], [["x"]])
    n = module_from_strings(ring, [0], [["x + y"]])
    return ring, m, n


def test_criterion_04_depth_formula_q_zero():
    ring, m, n = _criterion4_instance()
    report = check_depth_formula(m, n, window=8)
    assert (report.depth_m, report.depth_n, report.depth_ring) == (1, 0, 1)
    assert report.q == 0 and report.q_rigor in ("finite-pd", "periodic-tail")
    assert report.depth_tor_q == 0
    assert report.lhs == 1 and report.rhs == 1 and report.verdict
    passed(4, "q = 0 instance: 1 + 0 = 1 + 0 - 0, Tor-independence rigorous")


def test_criterion_05_depth_formula_q_one():
    ring = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=14)
    m = module_from_strings(ring, [0], [["x + y"]])
    n = module_from_strings(ring, [0], [["x^2"]])
    profile = tor(m, n, 8)
    assert profile.q == 1 and profile.rigorous
    assert profile.dims[1] == {2: 1}  # Tor_1 is one-dimensional: a copy of k
    report = check_depth_formula(m, n, window=8)
    assert (report.depth_m, report.depth_n) == (0, 0)
    assert report.q == 1 and report.depth_tor_q == 0
    assert report.lhs == 0 and report.rhs == 1 + 0 - 1 == 0 and report.verdict
    passed(5, "q = 1 instance: 0 + 0 = 1 + 0 - 1 with Tor_1 = k, rigorous")


def test_criterion_06_reduction_witnesses():
    ci = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"], degree_bound=12)
    seq = reduction_search(residue_field(ci), window=9)
    assert seq is not None
    assert seq.chain_values() == [2, 1, 0]
    assert len(seq.steps) == 2
    assert all(s.ses_ok for s in seq.steps)

    one = ring_from_strings(2, ["x"], ["x^2"], degree_bound=12)
    seq1 = reduction_search(residue_field(one), window=8)
    assert seq1 is not None and len(seq1.steps) == 1
    final = seq1.steps[-1].module
    res = resolve(final, 3)
    assert proj_dim(res) == 0 and res.betti()[0] == 1  # the middle module is free
    passed(6, "reduction witnesses: 2-step chain 2>1>0 over the CI ring, "
              "1-step free cover over F_2[x]/(x^2), all sequences exact")


def _flagship():
    f, ef = periodic_variable_complex(2, 1, 13, prefix="x")
    g, eg = periodic_variable_complex(2, 1, 13, prefix="y")
    return run_construction([f, g], [ef, eg])


def test_criterion_07_flagship_construction():
    result = _flagship()
    assert result.cone_bettis[0] == [j + 1 for j in range(13)]  # j <= 12
    cone1 = result.cone_bettis[1]
    assert len(set(cone1[1:])) == 1  # constant from degree 1 on
    cone2 = result.cone_bettis[2]
    assert cone2[-1] == 0 and cone2[-2] == 0  # eventually zero
    assert [e.value for e in result.complexity_chain] == [2, 1, 0]
    assert all(r.ok for r in result.ses_reports)
    cor = corollary_module(result)
    assert dims(cor.module, 4) == [1, 0, 0, 0, 0]  # the residue field
    assert cor.betti_matches_product and cor.transport_complete
    passed(7, "two period-1 factors: product Betti j+1, cone Betti constant then "
              "vanishing, both linking sequences exact, cokernel is k")


def test_criterion_08_periodicity_detector():
    one, _ = periodic_variable_complex(2, 1, 12, prefix="x")
    cert1 = detect_complex_periodicity(one)
    assert cert1 is not None and cert1.period == 1

    hyp = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=16)
    res = resolve(module_from_strings(hyp, [0], [["x"]]), 12)
    cert2 = detect_complex_periodicity(res)
    assert cert2 is not None and cert2.period == 2
    kind, rigorous = cert2.below[1]
    assert rigorous

    r = ring_from_strings(2, ["x"], ["x^2"], degree_bound=8)
    import syzkit.freemod as fm

    gens = [(0,), (0,), (), (), ()]
    d1 = fm.FreeMap.from_poly_matrix(r, gens[0], gens[1], [[{(0,): 1}]])
    acyclic = FreeComplex(r, gens, [None, d1, None, None, None])
    assert detect_complex_periodicity(acyclic) is None
    passed(8, "periods 1 and 2 certified with rigorous infeasibility below; "
              "bounded acyclic complex has no period")


def test_criterion_09_infinite_ci_witness_and_negative_control():
    f, ef = periodic_variable_complex(2, 1, 12, prefix="x")
    g4, eg4 = periodic_variable_complex(2, 4, 12, prefix="y")
    result = run_construction([f, g4], [ef, eg4])
    assert result.witness_configuration
    assert result.last_e_certificate is not None
    assert result.last_e_certificate.period == 4
    assert result.last_e_complexity.value == 1
    assert result.infinite_ci_witness

    g2, eg2 = periodic_variable_complex(2, 2, 12, prefix="z")
    control = run_construction([f, g2], [ef, eg2])
    assert control.last_e_certificate.period == 2
    assert not control.infinite_ci_witness  # refused: period 2 is not > 2
    passed(9, "period-4 configuration certified (complexity 1, period 4 > 2); "
              "verdict refused on the period-2 control")


def test_criterion_10_deformation_stability():
    ring, m, n = _criterion4_instance()
    base = check_depth_formula(m, n, window=8)
    ext = polynomial_extension(ring, 1)
    m2 = module_from_strings(ext, [0], [["x"]])
    n2 = module_from_strings(ext, [0], [["x + y"]])
    report = check_depth_formula(m2, n2, window=8)
    assert report.depth_ring == base.depth_ring + 1 == 2
    assert report.depth_m == base.depth_m + 1 == 2
    assert report.depth_n == base.depth_n + 1 == 1
    assert report.depth_tor_q == base.depth_tor_q + 1 == 1
    assert report.q == 0 and report.verdict and base.verdict
    passed(10, "adjoining one variable raises all four depths by 1 and "
               "preserves the verdict")


def test_criterion_11_machine_mode_determinism():
    commands = [
        ("resolve", fx("x1_k.module"), "--window", "20", "--machine"),
        ("resolve", fx("ci2_k.module"), "--window", "15", "--machine"),
        ("resolve", fx("golod_k.module"), "--window", "12", "--machine"),
        ("depth-formula", fx("hyp_ax.module"), fx("hyp_axy.module"),
         "--window", "8", "--machine"),
        ("depth-formula", fx("hyp_axy.module"), fx("hyp_ax2.module"),
         "--window", "8", "--machine"),
        ("construct", fx("period1_x.complex"), fx("period1_y.complex"),
         "--machine"),
    ]
    for cmd in commands:
        first = run_cli(*cmd)
        second = run_cli(*cmd)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty machine records
    passed(11, "machine-mode outputs byte-identical across two runs for "
               "criteria 1, 4, 5, and 7 commands")
