import math
from dataclasses import dataclass

import numpy as np
import pytest

from syzkit.errors import SyzkitError, WindowError
from syzkit.homological import (
    ExtClass,
    check_depth_formula,
    ext_basis,
    pushout_extension,
    reduction_search,
    tor,
    tor_as_module,
)
from syzkit.linalg import rank, zeros
from syzkit.modules import (
    ModuleMap,
    free_module,
    module_from_strings,
    residue_field,
    tensor_presentation,
    verify_ses,
)
from syzkit.resolutions import depth, resolve
from syzkit.rings import ring_from_strings
from poly_oracles import normal_form
from test_depth import proj_dim
from test_modules import annihilated_by, dims
from test_rings import polynomial_extension


@dataclass
class DepthLemmaReport:
    depth_left: int
    depth_middle: int
    depth_right: int
    middle_ok: bool
    left_ok: bool
    right_ok: bool

    @property
    def all_ok(self):
        return self.middle_ok and self.left_ok and self.right_ok


def depth_lemma_check(inc, proj):
    """Standard depth inequalities on a verified short exact sequence:
    a failure here is an engine bug, not a mathematical discovery."""
    a, b, c = inc.source, inc.target, proj.target
    ok, why = verify_ses(inc, proj)
    if not ok:
        raise SyzkitError(f"sequence is not degreewise exact: {why}")
    da, db, dc = depth(a).depth, depth(b).depth, depth(c).depth
    return DepthLemmaReport(
        da, db, dc,
        middle_ok=db >= min(da, dc),
        left_ok=da >= min(db, dc + 1),
        right_ok=dc >= min(da - 1, db),
    )


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
    assert tor(free_module(r), residue_field(r), 6).q == 0
    m = module_from_strings(r, [0], [["x"]])
    n = module_from_strings(r, [0], [["x + y"]])
    profile = tor(m, n, 8)
    assert (profile.q, profile.q_rigor) == (0, "periodic-tail")
    profile = tor(
        module_from_strings(r, [0], [["x + y"]]),
        module_from_strings(r, [0], [["x^2"]]), 8,
    )
    assert (profile.q, profile.q_rigor) == (1, "finite-pd")


def test_tor_reads_a_collapsed_ring_in_every_degree():
    # R_2 = 0 within the bound, so every component of F_i (x) N is known:
    # Tor_i(k, k) = k in degree i for every i, read past D = 3
    r = ring_from_strings(2, ["x"], ["x^2"], degree_bound=3)
    k = residue_field(r)
    profile = tor(k, k, 6)
    assert profile.dims == [{i: 1} for i in range(7)]
    assert (profile.q, profile.internal_bound) == (6, math.inf)
    k = residue_field(ci_ring())
    profile = tor(k, k, 2)
    assert profile.dims == [{0: 1}, {1: 2}, {2: 3}]
    assert profile.internal_bound == math.inf


def test_tor_window_starts_where_the_resolution_starts():
    # over a ring that does not collapse Tor is exact up to D ring degrees
    # above the least presented generators of M and N, so the bound moves
    # with a shift; a redundant generator below the minimal ones lowers it,
    # as it lowers the window the resolution certified
    r = xy_ring(8)
    m = module_from_strings(r, [0], [["x"]])
    n = module_from_strings(r, [0], [["x + y"]])
    for s in (-2, -1, 0, 1, 2):
        profile = tor(m.shifted(s), n, 3)
        assert profile.internal_bound == 8 + s
        assert profile.dims == [{s: 1}, {}, {}, {}]
    padded = module_from_strings(r, [-1, 0], [["1", "0"], ["0", "x"]])
    assert padded.min_degree() == -1
    assert resolve(padded, 3).gen_degrees(0) == (0,)
    assert tor(padded, n, 3).internal_bound == 7
    assert tor(n, padded, 3).internal_bound == 7


def test_tor_as_module_examples():
    r = xy_ring(14)
    m = module_from_strings(r, [0], [["x + y"]])
    n = module_from_strings(r, [0], [["x^2"]])
    t1 = tor_as_module(m, n, 1)
    assert dims(t1, 5) == [0, 0, 1, 0, 0, 0]
    assert annihilated_by(t1, r.base.parse("x"), 2)
    assert annihilated_by(t1, r.base.parse("y"), 2)

    k = residue_field(r)
    t0 = tor_as_module(k, k, 0)
    assert dims(t0, 3) == [1, 0, 0, 0]

    mm = module_from_strings(r, [0], [["x"]])
    t0m = tor_as_module(mm, free_module(r), 0)
    assert dims(t0m, 6) == dims(mm, 6)


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
        1, 0, [zeros(k.dim(g), 1)[:, 0] for g in res.gens[1]], k, k, res
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
    assert out.ses_ok and depth(out.module).depth == depth(k).depth
    res = resolve(out.module, 3)
    assert res.betti()[0] == 1 and proj_dim(res) == 0


def test_reduction_search_finite_pd_is_empty():
    r = xy_ring()
    m = module_from_strings(r, [0], [["x + y"]])
    seq = reduction_search(m)
    assert seq is not None and seq.steps == [] and seq.reddeg_lower_bound == math.inf


def test_reduction_search_refuses_max_degree_below_one_before_resolving(monkeypatch):
    from syzkit import homological, resolutions

    def fail(*_):
        raise AssertionError("resolve ran before max_degree was refused")

    r = ring_from_strings(3, ["x", "y"], ["x^2", "y^2"], degree_bound=10)
    monkeypatch.setattr(resolutions, "resolve", fail)
    monkeypatch.setattr(homological, "resolve", fail)
    for bad in (0, -1):
        with pytest.raises(SyzkitError, match=f"needs max_degree >= 1, got {bad}$"):
            reduction_search(residue_field(r), max_degree=bad)


def test_reduction_search_refuses_a_negative_seed_before_resolving(monkeypatch):
    from syzkit import homological, resolutions

    def fail(*_):
        raise AssertionError("resolve ran before the seed was refused")

    r = ring_from_strings(3, ["x", "y"], ["x^2", "y^2"], degree_bound=10)
    monkeypatch.setattr(resolutions, "resolve", fail)
    monkeypatch.setattr(homological, "resolve", fail)
    with pytest.raises(SyzkitError, match="needs a seed >= 0, got -1$"):
        reduction_search(residue_field(r), seed=-1)


def test_reduction_search_one_variable():
    r = ring_from_strings(2, ["x"], ["x^2"], degree_bound=16)
    seq = reduction_search(residue_field(r), window=8)
    assert seq is not None and len(seq.steps) == 1
    assert seq.chain_values() == [1, 0]
    from syzkit.resolutions import resolve as _resolve

    final = seq.steps[-1].module
    assert proj_dim(_resolve(final, 2)) == 0


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
    from syzkit.linalg import rank, zeros

    inc_col = zeros(fm.component_dim(r, b.gen_degrees, 1), 1)[:, 0]
    inc_col[:] = normal_form(r, r.base.parse("y"), 1)
    inc = ModuleMap(a, b, fm.FreeMap.from_dense(r, a.gen_degrees, b.gen_degrees, [inc_col]))
    proj_col = zeros(fm.component_dim(r, c.gen_degrees, 0), 1)[:, 0]
    proj_col[0] = 1
    proj = ModuleMap(b, c, fm.FreeMap.from_dense(r, b.gen_degrees, c.gen_degrees, [proj_col]))
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
        out = pushout_extension(cls)
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
    from syzkit.linalg import rank, zeros

    inc_col = zeros(fm.component_dim(r, middle.gen_degrees, 0), 1)[:, 0]
    inc_col[0] = 1
    inc = ModuleMap(k, middle, fm.FreeMap.from_dense(r, k.gen_degrees, middle.gen_degrees, [inc_col]))
    proj_cols = []
    for b, g in enumerate(middle.gen_degrees):
        v = zeros(fm.component_dim(r, f.gen_degrees, g), 1)[:, 0]
        if b == 1:
            v[0] = 1
        proj_cols.append(v)
    proj = ModuleMap(middle, f, fm.FreeMap.from_dense(r, middle.gen_degrees, f.gen_degrees, proj_cols))
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


def _count_calls(monkeypatch):
    """Record resolve's n_max and depth's module on every call."""
    import syzkit.homological as homological
    import syzkit.resolutions as resolutions

    calls = {"resolve": [], "depth": []}
    for name in calls:
        real = getattr(resolutions, name)

        def counted(module, *args, _real=real, _name=name, **kwargs):
            calls[_name].append(args[0] if _name == "resolve" else module)
            return _real(module, *args, **kwargs)

        monkeypatch.setattr(resolutions, name, counted)
        monkeypatch.setattr(homological, name, counted)
    return calls


def test_depth_formula_resolves_m_once_for_tor_and_tor_q(monkeypatch):
    r = xy_ring()
    m = module_from_strings(r, [0], [["x + y"]])
    k = residue_field(r)
    calls = _count_calls(monkeypatch)
    report = check_depth_formula(m, k, window=4)
    # M to window + 1 only: depth reads Koszul homology, not a resolution
    assert calls["resolve"] == [5]
    # one depth each for M, N, R and Tor_1
    assert len(calls["depth"]) == 4
    assert calls["depth"][:2] == [m, k]
    assert report.lines() == [
        ("depth_m", 0), ("depth_n", 0), ("depth_ring", 1), ("q", 1),
        ("rigor", "finite-pd"), ("depth_tor_q", 0), ("lhs", 0), ("rhs", 0),
        ("verdict", "true"), ("windows", "homological=4,internal=12"),
    ]


def test_depth_formula_builds_each_tor_matrix_once(monkeypatch):
    # Tor and the module structure of Tor_q read one homology of F (x) N,
    # so no matrix of it is built twice; over F_3[x,y]/(xy) with
    # M = R/(x+y), N = R/(x^2) and q = 1, a second homology for Tor_q
    # built 25 of the 117 matrices again.  The (k, d) counted are those
    # the differential of the resolution's homology over N builds (the
    # Koszul complexes of depth are plain FreeComplexes)
    from collections import Counter

    from syzkit.complexes import FreeComplex
    from syzkit.resolutions import FreeResolution

    r = xy_ring()
    m = module_from_strings(r, [0], [["x + y"]])
    n = module_from_strings(r, [0], [["x^2"]])
    built = Counter()
    real = FreeComplex.homology

    def counted(cx, over=None):
        homology = real(cx, over)
        if isinstance(cx, FreeResolution):
            assert over is n
            diff = homology._diff

            def count(k, d):
                built[(k, d)] += 1
                return diff(k, d)

            homology._diff = count
        return homology

    monkeypatch.setattr(FreeComplex, "homology", counted)
    report = check_depth_formula(m, n, window=8)
    assert len(built) == 117
    assert set(built.values()) == {1}
    assert report.lines() == [
        ("depth_m", 0), ("depth_n", 0), ("depth_ring", 1), ("q", 1),
        ("rigor", "finite-pd"), ("depth_tor_q", 0), ("lhs", 0), ("rhs", 0),
        ("verdict", "true"), ("windows", "homological=8,internal=12"),
    ]
    assert report.annotations[1:] == [
        "q = 1 >= 1 with depth Tor_q = 0",
        "depth Tor_q <= 1 case",
        "M has finite projective dimension, so its upper reducing degree is "
        "infinite (>= 2 in particular)",
    ]


def test_a_negative_tor_index_is_refused():
    r = xy_ring()
    m = module_from_strings(r, [0], [["x"]])
    with pytest.raises(SyzkitError, match="Tor_-1 as a module needs an index >= 0"):
        tor_as_module(m, residue_field(r), -1)


def test_a_negative_syzygy_index_is_refused():
    # before, syzygy(res, -1) returned the zero module
    from syzkit.resolutions import syzygy

    m = module_from_strings(xy_ring(), [0], [["x"]])
    with pytest.raises(SyzkitError, match="syzygy -1 needs an index >= 0"):
        syzygy(resolve(m, 3), -1)


def test_depth_formula_checks_the_common_ring_before_resolving(monkeypatch):
    from syzkit import homological

    def fail(*_):
        raise AssertionError("resolve ran before the rings were compared")

    m = residue_field(ring_from_strings(5, ["x"], ["x^2"], degree_bound=8))
    n = residue_field(ring_from_strings(5, ["y"], ["y^2"], degree_bound=8))
    monkeypatch.setattr(homological, "resolve", fail)
    with pytest.raises(SyzkitError, match="depth formula needs modules over a common ring"):
        check_depth_formula(m, n)


def test_a_resolution_one_step_short_is_refused():
    # R = F_5[x]/(x^2) is free and self-injective, so Tor_1(k, R) and
    # Ext^1(k, R) vanish; a resolution out to F_1 does not know F_2 and
    # must not read it as zero
    r = ring_from_strings(5, ["x"], ["x^2"], degree_bound=8)
    k, free = residue_field(r), free_module(r)
    short = resolve(k, 1)
    with pytest.raises(WindowError):
        tor_as_module(k, free, 1, res=short)
    with pytest.raises(WindowError):
        ext_basis(k, free, 1, res=short)
    full = resolve(k, 2)
    assert tor_as_module(k, free, 1, res=full).is_zero()
    assert ext_basis(k, free, 1, res=full) == []
    # a terminated resolution knows every F_i past its window
    ended = resolve(free, 1)
    assert ended.terminated_at == 1
    assert tor_as_module(free, k, 1, res=ended).is_zero()
    assert ext_basis(free, k, 1, res=ended) == []


def _dim_x_times_ring(r):
    """dim_k xR, counted from the ring's multiplication tables."""
    x = r.basis_monomials(1).index((1,) + (0,) * (len(r.vars) - 1))
    return sum(rank(r.mult_map(1, x, a), r.char) for a in range(r.degree_window(0, 0).top + 1))


@pytest.mark.parametrize("p, names", [
    (5, ["x", "y"]), (32003, ["x", "y"]), (3, ["x", "y", "z"]),
])
def test_ext_into_a_self_injective_ring(p, names):
    # an Artinian complete intersection is Gorenstein, so R is injective over
    # itself: Ext^t(M, R) = 0 for t >= 1, and Hom(M, R) is dual to M
    r = ring_from_strings(p, names, [f"{v}^2" for v in names], degree_bound=8)
    free = free_module(r)
    k = residue_field(r)
    cyclic = module_from_strings(r, [0], [["x"]])
    for m in (k, cyclic):
        res = resolve(m, 4)
        assert [len(ext_basis(m, free, t, res=res)) for t in (1, 2, 3)] == [0, 0, 0]
    assert len(ext_basis(k, free, 0)) == 1
    assert len(ext_basis(cyclic, free, 0)) == _dim_x_times_ring(r)


def test_pushout_refuses_a_class_that_is_no_cocycle():
    # over F_5[x]/(x^3), M = R/(x^2) has d_1 = x^2 and d_2 = x; the class
    # sending the generator of F_1 to 1 in M_0 does not vanish on x * F_2
    r = ring_from_strings(5, ["x"], ["x^3"], degree_bound=10)
    m = module_from_strings(r, [0], [["x^2"]])
    res = resolve(m, 3)
    unit = zeros(m.dim(0), 1)[:, 0]
    unit[0] = 1
    eta = ExtClass(1, -2, [unit], m, m, res)
    with pytest.raises(SyzkitError, match="cocycle check failed"):
        pushout_extension(eta)
    # without F_2 the check cannot run, and the pushout is refused
    short = ExtClass(1, -2, [unit], m, m, resolve(m, 1))
    with pytest.raises(WindowError):
        pushout_extension(short)


def test_tor_and_ext_refuse_modules_over_different_rings():
    # without the ring check both reach numpy with the other ring's tables
    # ("cannot reshape array of size 2 into shape (1,3)")
    m = module_from_strings(xy_ring(), [0], [["x"]])
    other = ring_from_strings(5, ["x", "y", "z"], ["x*y", "z^2"], degree_bound=12)
    n = module_from_strings(other, [0], [["x"]])
    for read in (lambda: tor(m, n, 3), lambda: tor_as_module(m, n, 1),
                 lambda: tor_as_module(m, n, 2), lambda: ext_basis(m, n, 1),
                 lambda: ext_basis(m, n, 0)):
        with pytest.raises(SyzkitError, match="needs modules over a common ring"):
            read()


def test_a_resolution_of_another_module_is_refused():
    # k's resolution read as R/(x)'s would give Tor(k, k) = {0:1}, {1:2},
    # {2:2} for Tor(R/(x), k) = {0:1}, {1:1}, {2:1}
    r = xy_ring()
    m, k = module_from_strings(r, [0], [["x"]]), residue_field(r)
    assert tor(m, k, 2, res=resolve(m, 3)).dims == [{0: 1}, {1: 1}, {2: 1}]
    other = resolve(k, 4)
    for read in (lambda: tor(m, k, 3, res=other), lambda: tor_as_module(m, k, 1, res=other),
                 lambda: ext_basis(m, k, 1, res=other)):
        with pytest.raises(SyzkitError, match="needs a resolution of its first module"):
            read()


def _with_d2_replaced(p):
    """R/(x) over F_p[x,y]/(xy) with its resolution ... -x-> R -y-> R -x-> R,
    but d_2 = x in place of y, so d_1 d_2 = x^2 and d_2 d_3 = x^2 are not 0."""
    from syzkit.freemod import FreeMap
    from syzkit.resolutions import FreeResolution

    r = ring_from_strings(p, ["x", "y"], ["x*y"], degree_bound=8)
    m = module_from_strings(r, [0], [["x"]])
    res = resolve(m, 4)
    d1 = res.diff(1)
    assert res.gens[:4] == [(0,), (1,), (2,), (3,)]
    diffs = list(res.diffs)
    diffs[2] = FreeMap(r, (2,), (1,), d1.records())  # x times the generator of F_1
    bad = FreeResolution(r, m, res.gens, diffs, res.cover, res.terminated_at, res.low)
    return r, m, bad


@pytest.mark.parametrize("p", [3, 32003])
def test_tor_ext_and_complex_homology_check_d_squared(p):
    # N = R: over k, x^2 acts as 0 and the tensored complex would be one
    from syzkit.complexes import FreeComplex

    r, m, bad = _with_d2_replaced(p)
    free = free_module(r)
    with pytest.raises(SyzkitError, match="not a complex"):
        tor(m, free, 3, res=bad)
    with pytest.raises(SyzkitError, match="not a complex"):
        ext_basis(m, free, 1, res=bad)
    with pytest.raises(SyzkitError, match="not a complex"):
        FreeComplex(r, bad.gens, bad.diffs).homology().dim(1, 2)
