import math

import numpy as np

from syzkit.homological import (
    ExtClass,
    check_depth_formula,
    depth_lemma_check,
    ext_basis,
    max_nonvanishing_tor,
    pushout_extension,
    reduction_search,
    tor,
    tor_as_module,
)
from syzkit.linalg import zeros
from syzkit.modules import (
    ModuleMap,
    free_module,
    module_from_strings,
    residue_field,
    tensor_presentation,
)
from syzkit.resolutions import depth, resolve
from syzkit.rings import ring_from_strings


def xy_ring(bound=12):
    return ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=bound)


def ci_ring(bound=12):
    return ring_from_strings(2, ["x", "y"], ["x^2", "y^2"], degree_bound=bound)


def test_tor_with_free_module_vanishes():
    r = ci_ring()
    n = module_from_strings(r, [0], [["x*y"]])
    profile = tor(free_module(r), n, 5)
    assert profile.q == 0 and profile.q_rigor == "finite-pd"
    assert profile.dims[0] == {d: n.dim(d) for d in range(r.degree_bound + 1) if n.dim(d)}


def test_tor_independent_hypersurface_pair():
    r = xy_ring(14)
    m = module_from_strings(r, [0], [["x"]])
    n = module_from_strings(r, [0], [["x + y"]])
    profile = tor(m, n, 8)
    assert profile.q == 0
    assert profile.q_rigor == "periodic-tail"
    for i in range(1, 9):
        assert profile.dims[i] == {}


def test_tor_q_one_pair():
    r = xy_ring(14)
    m = module_from_strings(r, [0], [["x + y"]])
    n = module_from_strings(r, [0], [["x^2"]])
    profile = tor(m, n, 8)
    assert profile.q == 1 and profile.q_rigor == "finite-pd"
    assert sum(profile.dims[1].values()) == 1
    assert profile.dims[1] == {2: 1}
    for i in range(2, 9):
        assert profile.dims[i] == {}


def test_tor_symmetry_on_sample_pairs():
    r = ci_ring(10)
    mods = [
        residue_field(r),
        module_from_strings(r, [0], [["x"]]),
        module_from_strings(r, [0, 1], [["x*y", "y"]]),
    ]
    for m in mods:
        for n in mods:
            a = tor(m, n, 6)
            b = tor(n, m, 6)
            assert a.dims == b.dims


def test_max_nonvanishing_tor_examples():
    r = xy_ring(14)
    assert max_nonvanishing_tor(free_module(r), residue_field(r), 6)[0] == 0
    m = module_from_strings(r, [0], [["x"]])
    n = module_from_strings(r, [0], [["x + y"]])
    q, rigor = max_nonvanishing_tor(m, n, 8)
    assert (q, rigor) == (0, "periodic-tail")
    q2, rigor2 = max_nonvanishing_tor(
        module_from_strings(r, [0], [["x + y"]]),
        module_from_strings(r, [0], [["x^2"]]), 8,
    )
    assert (q2, rigor2) == (1, "finite-pd")


def test_tor_as_module_examples():
    r = xy_ring(14)
    m = module_from_strings(r, [0], [["x + y"]])
    n = module_from_strings(r, [0], [["x^2"]])
    t1 = tor_as_module(m, n, 1)
    assert t1.dims(5) == [0, 0, 1, 0, 0, 0]
    assert t1.annihilated_by(r.base.parse("x"), 2)
    assert t1.annihilated_by(r.base.parse("y"), 2)

    k = residue_field(r)
    t0 = tor_as_module(k, k, 0)
    assert t0.dims(3) == [1, 0, 0, 0]

    mm = module_from_strings(r, [0], [["x"]])
    t0m = tor_as_module(mm, free_module(r), 0)
    assert t0m.dims(6) == mm.dims(6)


def test_tor_zero_agreement_invariant():
    r = ci_ring(10)
    m = module_from_strings(r, [0], [["x"]])
    n = module_from_strings(r, [0, 1], [["x*y", "y"]])
    profile = tor(m, n, 4)
    presented = tensor_presentation(m, n)
    for d in range(8):
        assert profile.dims[0].get(d, 0) == presented.dim(d)


def test_ext_degree_zero_of_free():
    r = ci_ring()
    n = module_from_strings(r, [0], [["x"]])
    basis = ext_basis(free_module(r), n, 0)
    dims_by_w = {}
    for c in basis:
        dims_by_w[c.internal_degree] = dims_by_w.get(c.internal_degree, 0) + 1
    assert dims_by_w == {d: n.dim(d) for d in range(r.degree_bound + 1) if n.dim(d)}


def test_ext_one_of_residue_field_complete_intersection():
    r = ci_ring()
    k = residue_field(r)
    basis = ext_basis(k, k, 1)
    assert len(basis) == 2
    assert all(c.internal_degree == -1 for c in basis)


def test_ext_vanishes_above_projective_dimension():
    r = xy_ring()
    m = module_from_strings(r, [0], [["x + y"]])  # pd 1
    assert ext_basis(m, residue_field(r), 2) == []


def test_pushout_of_zero_class_splits():
    r = ci_ring()
    k = residue_field(r)
    res = resolve(k, 3)
    zero_eta = ExtClass(
        1, 0, [zeros(k.dim(g), 1, r.char)[:, 0] for g in res.gens[1]], k, k, res
    )
    out = pushout_extension(zero_eta)
    assert out.ses_ok
    from syzkit.resolutions import syzygy

    om = syzygy(res, 0)
    for d in range(6):
        assert out.module.dim(d) == k.dim(d) + om.dim(d)


def test_pushout_gives_free_cover_over_one_variable():
    r = ring_from_strings(2, ["x"], ["x^2"], degree_bound=12)
    k = residue_field(r)
    basis = ext_basis(k, k, 1)
    assert len(basis) == 1
    out = pushout_extension(basis[0])
    assert out.ses_ok and out.depth_preserved
    res = resolve(out.module, 3)
    assert res.betti()[0] == 1 and res.proj_dim() == 0


def test_reduction_search_finite_pd_is_empty():
    r = xy_ring()
    m = module_from_strings(r, [0], [["x + y"]])
    seq = reduction_search(m)
    assert seq is not None and seq.steps == [] and seq.reddeg_lower_bound == math.inf


def test_reduction_search_one_variable():
    r = ring_from_strings(2, ["x"], ["x^2"], degree_bound=16)
    seq = reduction_search(residue_field(r), window=8)
    assert seq is not None and len(seq.steps) == 1
    assert seq.chain_values() == [1, 0]
    from syzkit.resolutions import resolve as _resolve

    final = seq.steps[-1].module
    assert _resolve(final, 2).proj_dim() == 0


def test_reduction_search_complete_intersection_two_steps():
    r = ci_ring(16)
    seq = reduction_search(residue_field(r), window=9)
    assert seq is not None
    assert seq.chain_values() == [2, 1, 0]
    assert all(s.ses_ok for s in seq.steps)
    assert seq.reddeg_lower_bound >= 1


def test_depth_formula_trivial_free_pair():
    s = ring_from_strings(3, ["x"], [])
    f = free_module(s)
    report = check_depth_formula(f, f, window=4)
    assert report.verdict
    assert report.lhs == 2 and report.rhs == 2


def test_depth_formula_q_zero_instance():
    r = xy_ring(14)
    m = module_from_strings(r, [0], [["x"]])
    n = module_from_strings(r, [0], [["x + y"]])
    report = check_depth_formula(m, n, window=8)
    assert (report.depth_m, report.depth_n, report.depth_ring) == (1, 0, 1)
    assert report.q == 0 and report.depth_tor_q == 0
    assert report.lhs == 1 and report.rhs == 1 and report.verdict
    assert report.q_rigor == "periodic-tail"


def test_depth_formula_q_one_instance():
    r = xy_ring(14)
    m = module_from_strings(r, [0], [["x + y"]])
    n = module_from_strings(r, [0], [["x^2"]])
    report = check_depth_formula(m, n, window=8)
    assert (report.depth_m, report.depth_n) == (0, 0)
    assert report.q == 1 and report.depth_tor_q == 0
    assert report.lhs == 0 and report.rhs == 0 and report.verdict


def test_depth_lemma_on_pushout_sequence():
    r = ci_ring()
    k = residue_field(r)
    basis = ext_basis(k, k, 1)
    push = pushout_extension(basis[0])
    assert push.ses_ok
    report = depth_lemma_check(push.inclusion, push.projection)
    assert report.all_ok


def test_depth_lemma_on_ideal_sequence():
    r = xy_ring(14)
    a = module_from_strings(r, [1], [["x"]])  # (y) = A/(x) shifted by 1
    b = free_module(r)
    c = module_from_strings(r, [0], [["y"]])
    import syzkit.freemod as fm
    from syzkit.linalg import zeros

    inc_col = zeros(fm.component_dim(r, b.gen_degrees, 1), 1, 3)[:, 0]
    inc_col[:] = r.normal_form(r.base.parse("y"))
    inc = ModuleMap(a, b, [inc_col])
    proj_col = zeros(fm.component_dim(r, c.gen_degrees, 0), 1, 3)[:, 0]
    proj_col[0] = 1
    proj = ModuleMap(b, c, [proj_col])
    assert inc.verify() and proj.verify()
    report = depth_lemma_check(inc, proj)
    assert report.all_ok


def test_reduction_steps_preserve_depth():
    r = ci_ring(16)
    seq = reduction_search(residue_field(r), window=9)
    assert seq is not None
    assert all(s.depth_preserved for s in seq.steps)


def test_positive_depth_propagates_to_factors():
    # Tor-independent pairs with depth(M tensor N) > 0 force positive depth
    # of each factor meeting the module-theoretic hypotheses
    from syzkit.modules import tensor_presentation
    from syzkit.resolutions import depth as depth_of
    from syzkit.rings import polynomial_extension

    base = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=14)
    ext = polynomial_extension(base, 1)
    m = module_from_strings(ext, [0], [["x"]])
    n = module_from_strings(ext, [0], [["x + y"]])
    profile = tor(m, n, 6)
    assert profile.q == 0  # Tor-independent
    t = tensor_presentation(m, n)
    assert depth_of(t).depth > 0
    assert depth_of(n).depth > 0
    assert depth_of(m).depth > 0


def test_second_degree_class_drops_complexity_over_ci():
    # some class in cohomological degree 2 on the residue field of the
    # two-variable complete intersection yields a bounded-Betti middle module
    from syzkit.resolutions import complexity_of_module

    r = ci_ring(14)
    k = residue_field(r)
    res = resolve(k, 3)
    found = None
    for cls in ext_basis(k, k, 2, res=res):
        out = pushout_extension(cls, verify_depth=False)
        if not out.ses_ok:
            continue
        est, _ = complexity_of_module(out.module, window=9)
        if est.value == 1:
            found = (cls, est)
            break
    assert found is not None
    assert found[1].status in ("exact-periodic", "estimated")


def test_depth_lemma_on_pushout_maps():
    r = ring_from_strings(2, ["x"], ["x^2"], degree_bound=12)
    k = residue_field(r)
    eta = ext_basis(k, k, 1)[0]
    push = pushout_extension(eta)
    report = depth_lemma_check(push.inclusion, push.projection)
    assert report.all_ok
    assert report.depth_middle >= min(report.depth_left, report.depth_right)


def test_depth_lemma_on_split_sequence():
    r = ci_ring()
    k = residue_field(r)
    f = free_module(r)
    middle = module_from_strings(r, [0, 0], [["x", "0"], ["y", "0"]])
    import syzkit.freemod as fm
    from syzkit.linalg import zeros

    inc_col = zeros(fm.component_dim(r, middle.gen_degrees, 0), 1, 2)[:, 0]
    inc_col[0] = 1
    inc = ModuleMap(k, middle, [inc_col])
    proj_cols = []
    for b, g in enumerate(middle.gen_degrees):
        v = zeros(fm.component_dim(r, f.gen_degrees, g), 1, 2)[:, 0]
        if b == 1:
            v[0] = 1
        proj_cols.append(v)
    proj = ModuleMap(middle, f, proj_cols)
    report = depth_lemma_check(inc, proj)
    assert report.all_ok
    # split case: middle depth equals the minimum exactly
    assert report.depth_middle == min(report.depth_left, report.depth_right)


def test_ext_dimensions_match_betti_over_ci():
    # all of Hom(F_t, k) are cocycles and no coboundaries survive, so
    # dim Ext^t(k, k) equals the t-th Betti number
    r = ci_ring()
    k = residue_field(r)
    from syzkit.resolutions import resolve as _resolve

    res = _resolve(k, 4)
    for t in range(4):
        assert len(ext_basis(k, k, t, res=res)) == res.betti()[t]


def _count_resolves(monkeypatch):
    import syzkit.homological as homological
    import syzkit.resolutions as resolutions

    calls = []
    real = resolutions.resolve

    def counted(module, n_max, *args, **kwargs):
        calls.append(n_max)
        return real(module, n_max, *args, **kwargs)

    monkeypatch.setattr(resolutions, "resolve", counted)
    monkeypatch.setattr(homological, "resolve", counted)
    return calls


def test_depth_formula_resolves_m_once_for_tor_and_tor_q(monkeypatch):
    r = xy_ring()
    m = module_from_strings(r, [0], [["x + y"]])
    calls = _count_resolves(monkeypatch)
    report = check_depth_formula(m, residue_field(r), window=4)
    # M to window + 1, then the ambient lifts of M, N, R and Tor_1
    assert calls == [5, 3, 3, 3, 3]
    assert report.lines() == [
        ("depth_m", 0), ("depth_n", 0), ("depth_ring", 1), ("q", 1),
        ("rigor", "finite-pd"), ("depth_tor_q", 0), ("lhs", 0), ("rhs", 0),
        ("verdict", "true"), ("windows", "homological=4,internal=12"),
    ]
