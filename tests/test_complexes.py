import random
from collections import Counter

import numpy as np
import pytest

from syzkit import complexes, construction
from syzkit.complexes import (
    ChainMap,
    FreeComplex,
    _Embedding,
    coker_module,
    cone,
    induced_chain_map,
    induced_on_cone,
    minimize_complex,
    tensor_many,
    tensor_pair,
)
from syzkit.construction import (
    _commute,
    build_e_sequence,
    corollary_module,
    detect_complex_periodicity,
    run_construction,
)
from syzkit.errors import ParseError, SyzkitError, WindowError
from syzkit.freemod import FreeMap
from syzkit.io import read_complex_file
from syzkit.linalg import matmul
from syzkit.modules import module_from_strings, residue_field
from syzkit.resolutions import resolve
from syzkit.rings import PolyRing, TruncatedQuotientRing, ring_from_strings
from test_freemod import (
    blocks,
    columns,
    composite,
    equals,
    from_columns,
    identity,
    scale,
    vector,
)
from test_modules import dims
from test_rings import poly_mul, polynomial_extension


W = 10


def periodic_variable_complex(char, period, window, degree_bound=None, prefix="x"):
    """Rank-one complex over F_p[x_1..x_period]/(quadrics) with differentials
    cycling through the variables; periodic of exactly the given period.

    Returns (complex, eta) with eta the shift-`period` witness map.
    """
    names = [f"{prefix}{i + 1}" for i in range(period)] if period > 1 else [prefix]
    bound = degree_bound if degree_bound is not None else window + 2
    base = PolyRing(char, names, bound)
    quadrics = []
    n = len(names)
    for i in range(n):
        for j in range(i, n):
            exps = [0] * n
            exps[i] += 1
            exps[j] += 1
            quadrics.append({tuple(exps): 1})
    ring = TruncatedQuotientRing(base, quadrics)
    gens = [(j,) for j in range(window + 1)]
    diffs = [None]
    for j in range(1, window + 1):
        var = (j - 1) % n
        exps = [0] * n
        exps[var] = 1
        diffs.append(
            FreeMap.from_poly_matrix(ring, gens[j - 1], gens[j], [[{tuple(exps): 1}]])
        )
    cx = FreeComplex(ring, gens, diffs)
    assert cx.verify()
    comps = []
    for j in range(window + 1):
        src = cx.gen_degrees(j)
        tgt = cx.gen_degrees(j - period)
        comp = FreeMap.selection(ring, src, tgt, [0 if tgt else None], -period)
        # c_{j-1} = (-1)^period c_j forces the alternating scalar
        comps.append(scale(comp, (-1) ** (period * j)))
    eta = ChainMap(cx, cx, period, -period, comps)
    assert eta.verify()
    return cx, eta


def identity_chain_map(cx):
    comps = [identity(cx.ring, cx.gen_degrees(j)) for j in range(cx.window + 1)]
    return ChainMap(cx, cx, 0, 0, comps)


def chain_compose(outer, inner):
    """outer after inner (shifts and twists add); where outer has no
    component, the composite is zero."""
    shift, twist = outer.shift + inner.shift, outer.twist + inner.twist
    comps = []
    for j in range(inner.source.window + 1):
        first = outer.component(j - inner.shift)
        if first is None:
            comps.append(FreeMap.zero(inner.source.ring, inner.source.gen_degrees(j),
                                      outer.target.gen_degrees(j - shift), twist))
        else:
            comps.append(composite(first, inner.component(j)))
    return ChainMap(inner.source, outer.target, shift, twist, comps)


def chain_scale(phi, c):
    return ChainMap(phi.source, phi.target, phi.shift, phi.twist,
                    [scale(f, c) for f in phi.components])


def chain_equals(a, b):
    return ((a.shift, a.twist) == (b.shift, b.twist)
            and all(equals(x, y) for x, y in zip(a.components, b.components)))


def period_one_factor(char=2, window=W):
    return periodic_variable_complex(char, 1, window, prefix="x")


def period_two_hypersurface_complex(window=W):
    r = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=window + 4)
    res = resolve(module_from_strings(r, [0], [["x"]]), window)
    return res


def e_sequence(factors, etas):
    """The E-sequence of the factors' product, through their induced maps."""
    product = tensor_many(factors)
    return build_e_sequence(product, [induced_chain_map(product, i, eta)
                                      for i, eta in enumerate(etas)])


def test_periodic_variable_complex_shapes():
    cx, eta = period_one_factor()
    assert cx.ranks() == [1] * (W + 1)
    assert cx.verify() and cx.is_minimal()
    assert eta.verify() and eta.is_surjective() and eta.iso_range_ok(1)


def test_tensor_with_unit_complex():
    cx, _ = period_one_factor()
    k_ring = ring_from_strings(2, ["t"], ["t"])  # k = F_2[t]/(t)
    unit = FreeComplex(k_ring, [(0,)] + [()] * W, [None] * (W + 1))
    prod = tensor_pair(cx, unit)
    assert prod.ranks() == cx.ranks()


def test_tensor_rank_convolution():
    f, _ = period_one_factor()
    g, _ = periodic_variable_complex(2, 1, W, prefix="y")
    prod = tensor_pair(f, g)
    assert prod.ranks() == [j + 1 for j in range(W + 1)]
    assert prod.verify() and prod.is_minimal()


def test_tensor_two_term_complexes():
    r1 = ring_from_strings(2, ["x"], ["x^2"], degree_bound=8)
    r2 = ring_from_strings(2, ["y"], ["y^2"], degree_bound=8)
    import syzkit.freemod as fm

    def two_term(r, var):
        gens = [(0,), (1,), (), ()]
        d1 = fm.FreeMap.from_poly_matrix(r, gens[0], gens[1], [[r.base.parse(var)]])
        return FreeComplex(r, gens, [None, d1, None, None])

    prod = tensor_pair(two_term(r1, "x"), two_term(r2, "y"))
    assert prod.ranks() == [1, 2, 1, 0]
    assert prod.verify()


def test_induced_maps_commute_flagship():
    f, ef = period_one_factor()
    g, eg = periodic_variable_complex(2, 1, W, prefix="y")
    prod = tensor_many([f, g])
    m1 = induced_chain_map(prod, 0, ef)
    m2 = induced_chain_map(prod, 1, eg)
    assert m1.verify() and m2.verify()
    assert m1.is_surjective() and m2.is_surjective()
    assert _commute(m1, m2)


def test_induced_identity_is_identity():
    f, _ = period_one_factor()
    g, _ = periodic_variable_complex(2, 1, W, prefix="y")
    prod = tensor_many([f, g])
    ident = identity_chain_map(g)
    ind = induced_chain_map(prod, 1, ident)
    assert chain_equals(ind, identity_chain_map(prod))


def test_cone_of_identity_is_acyclic():
    cx, _ = period_one_factor()
    c = cone(identity_chain_map(cx))
    assert c.verify()
    assert c.sup_within_window() is None


def test_cone_of_zero_is_direct_sum():
    cx, eta = period_one_factor()
    zero = chain_scale(eta, 0)
    c = cone(zero)
    for j in range(c.window + 1):
        assert c.rank(j) == cx.rank(j - 1) + cx.rank(j - 1)


def test_cone_minimal_betti_constant_for_flagship():
    f, ef = period_one_factor()
    g, eg = periodic_variable_complex(2, 1, W, prefix="y")
    prod = tensor_many([f, g])
    m1 = induced_chain_map(prod, 0, ef)
    c1 = cone(m1)
    betti = c1.minimal_bettis(c1.window)[1:]
    assert len(set(betti)) == 1


def test_minimal_bettis_rank_each_scalar_block_once(monkeypatch):
    # rank(F_j) minus the ranks of the scalar blocks of d_j and d_{j+1},
    # with each block ranked once, out to the window and no further
    f, ef = period_one_factor()
    g, _ = periodic_variable_complex(2, 1, W, prefix="y")
    c1 = cone(induced_chain_map(tensor_many([f, g]), 0, ef))
    w = c1.window
    want = [c1.rank(j) - c1.scalar_rank(j) - c1.scalar_rank(j + 1) for j in range(w)]
    calls = []
    scalar_rank = FreeComplex.scalar_rank
    monkeypatch.setattr(FreeComplex, "scalar_rank",
                        lambda self, j: calls.append(j) or scalar_rank(self, j))
    assert c1.minimal_bettis(w) == want
    assert sorted(calls) == list(range(w + 1))
    with pytest.raises(WindowError, match="needs the next differential"):
        c1.minimal_bettis(w + 1)


def test_truncated_products_are_the_tensor_products_of_hard_truncations():
    # E^i cut out of the product by label is, generator for generator and
    # column for column, the product of the factors with the first i of them
    # truncated below their periods, built over a ring of its own
    factors = [period_one_factor(), periodic_variable_complex(2, 2, W, prefix="y"),
               periodic_variable_complex(2, 3, W, prefix="z")]

    def truncated(cx, n):
        gens = [cx.gen_degrees(j) if j < n else () for j in range(cx.window + 1)]
        diffs = [None] + [cx.diff(j) if j < n else FreeMap.zero(cx.ring, gens[j], gens[j - 1])
                          for j in range(1, cx.window + 1)]
        return FreeComplex(cx.ring, gens, diffs)

    complexes, reports = e_sequence(*zip(*factors))
    assert all(r.ok for r in reports), [r.detail for r in reports]
    assert [cx.ranks()[:5] for cx in complexes] == [[1, 3, 6, 10, 15], [1, 2, 3, 4, 5],
                                                    [1, 2, 2, 2, 2], [1, 2, 2, 1, 0]]
    for i, cx in enumerate(complexes):
        want = tensor_many([truncated(f, eta.shift) if k < i else f
                            for k, (f, eta) in enumerate(factors)])
        assert cx.gens == want.gens and cx.labels == want.labels
        for j in range(1, W + 1):
            assert all(np.array_equal(a, b) for a, b in
                       zip(columns(cx.diff(j)), columns(want.diff(j)), strict=True)), (i, j)


def test_subcomplex_refuses_generators_whose_boundary_it_drops():
    cx = tensor_many([period_one_factor()[0]])
    keep = [[]] + [[0]] * W  # F_1's generator maps onto x times the dropped F_0's
    with pytest.raises(SyzkitError, match="dropped"):
        cx.subcomplex(keep)


def test_a_construction_builds_one_product_ring(monkeypatch):
    import syzkit.construction as construction

    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for name in ("tensor_many", "induced_chain_map"):
        monkeypatch.setattr(construction, name, counted(getattr(construction, name)))
    factors = [period_one_factor(window=7), periodic_variable_complex(2, 1, 7, prefix="y"),
               periodic_variable_complex(2, 3, 7, prefix="z")]
    result = run_construction(*zip(*factors))
    assert calls == {"tensor_many": 1, "induced_chain_map": 3}
    assert len(result.e_complexes) == 4
    assert all(e.ring is result.product.ring for e in result.e_complexes)


def test_detect_periodicity_period_one_and_two():
    cx, _ = period_one_factor()
    cert = detect_complex_periodicity(cx)
    assert cert is not None and cert.period == 1

    two = period_two_hypersurface_complex()
    cert2 = detect_complex_periodicity(two)
    assert cert2 is not None and cert2.period == 2
    assert 1 in cert2.below
    kind, rigorous = cert2.below[1]
    assert rigorous


def test_periodicity_search_refuses_a_negative_seed():
    from syzkit.chainsolve import certify_periodicity

    cx, _ = period_one_factor()
    for search in (lambda: certify_periodicity(cx, False, seed=-1),
                   lambda: detect_complex_periodicity(cx, seed=-1)):
        with pytest.raises(SyzkitError, match="periodicity search needs a seed >= 0, got -1$"):
            search()


def test_detect_periodicity_absent_for_bounded_acyclic():
    r = ring_from_strings(2, ["x"], ["x^2"], degree_bound=8)
    import syzkit.freemod as fm

    gens = [(0,), (0,), (), (), ()]
    d1 = fm.FreeMap.from_poly_matrix(r, gens[0], gens[1], [[{(0,): 1}]])
    acyclic = FreeComplex(r, gens, [None, d1, None, None, None])
    assert acyclic.verify()
    assert detect_complex_periodicity(acyclic) is None


def test_detect_periodicity_period_four():
    cx, eta = periodic_variable_complex(2, 4, 12, prefix="y")
    cert = detect_complex_periodicity(cx)
    assert cert is not None and cert.period == 4
    for d in (1, 2, 3):
        kind, rigorous = cert.below[d]
        assert rigorous, (d, kind)


def test_e_sequence_exactness_flagship():
    f, ef = period_one_factor()
    g, eg = periodic_variable_complex(2, 1, W, prefix="y")
    complexes, reports = e_sequence([f, g], [ef, eg])
    assert all(r.ok for r in reports), [r.detail for r in reports]
    # rank identity E^{i-1}_j = E^i_j + E^{i-1}_{j-n}
    for i in (1, 2):
        for j in range(complexes[0].window + 1):
            lhs = complexes[i - 1].rank(j)
            rhs = complexes[i].rank(j) + complexes[i - 1].rank(j - reports[i - 1].shift)
            assert lhs == rhs


PLANTED_PRIMES = [2, 3, 32003, 2**31 - 1]


def _plus(fmap, other):
    """fmap + other, two maps with the same degrees and twist."""
    cols = [(a + b) % fmap.ring.char for a, b in zip(columns(fmap), columns(other))]
    return FreeMap.from_dense(fmap.ring, fmap.source_degrees, fmap.target_degrees, cols,
                              fmap.twist)


@pytest.mark.parametrize("p", PLANTED_PRIMES)
def test_a_complex_whose_square_is_not_zero_is_refused(p, tmp_path):
    # over F_p[x, y, z], d_1 = (x, y) and d_2 has columns (y, -x) in degree
    # 2 and (yz, -xz) in degree 3; planting yz in the second column leaves
    # the degree-2 composite zero and makes the degree-3 one y^2 z
    r = ring_from_strings(p, ["x", "y", "z"], [], degree_bound=6)
    (tmp_path / "r.ring").write_text(f"ring {{ char = {p}; vars = [x, y, z]; "
                                     "relations = []; degree_bound = 6 }")
    gens = [(0,), (1, 1), (2, 3)]
    for last, ok in [("-x*z", True), ("-x*z + y*z", False)]:
        rows = [[["x", "y"]], [["y", "y*z"], ["-x", last]]]
        diffs = [None] + [FreeMap.from_poly_matrix(r, gens[j - 1], gens[j],
                                                   [[r.base.parse(f) for f in row]
                                                    for row in rows[j - 1]])
                          for j in (1, 2)]
        groups = diffs[1].compose(diffs[2])
        assert [bs for bs, _ in groups] == [(0,), (1,)] and not groups[0][1].any()
        assert FreeComplex(r, gens, diffs).verify() == ok
        text = str(rows).replace("'", '"')
        (tmp_path / "c.complex").write_text(
            f'complex {{ ring = "r.ring"; modules = [[0], [1, 1], [2, 3]]; '
            f"differentials = {text} }}")
        if ok:
            assert read_complex_file(tmp_path / "c.complex")[0].ranks() == [1, 2, 2]
        else:
            with pytest.raises(ParseError, match="differentials do not compose to zero"):
                read_complex_file(tmp_path / "c.complex")


@pytest.mark.parametrize("p", PLANTED_PRIMES)
def test_induced_maps_that_do_not_commute_are_refused(p, monkeypatch):
    # the maps that periods 1 and 2 induce on a product commute; adding
    # m0 m0 to the second one on F_5 keeps it surjective and keeps the
    # truncated products, but m0 m1 and m1 m0 then differ on F_5
    f, ef = periodic_variable_complex(p, 1, 8, prefix="x")
    g, eg = periodic_variable_complex(p, 2, 8, prefix="y")
    induced = construction.induced_chain_map

    def planted(product, i, eta):
        m = induced(product, i, eta)
        if i == 0:
            return m
        m0 = induced(product, 0, ef)
        comps = list(m.components)
        comps[5] = _plus(comps[5], composite(m0.component(4), m0.component(5)))
        return ChainMap(product, product, m.shift, m.twist, comps)

    product = tensor_many([f, g])
    m0, m1, bad = induced(product, 0, ef), induced(product, 1, eg), planted(product, 1, eg)
    assert _commute(m0, m1) and _commute(m1, m0)
    assert not _commute(m0, bad) and not _commute(bad, m0)
    assert bad.is_surjective()
    monkeypatch.setattr(construction, "induced_chain_map", planted)
    with pytest.raises(SyzkitError, match="induced maps 0 and 1 do not commute"):
        run_construction([f, g], [ef, eg])


@pytest.mark.parametrize("p", PLANTED_PRIMES)
def test_induced_maps_of_odd_shift_graded_commute(p, monkeypatch):
    # the maps that two periods 1 induce on a product anticommute,
    # m0 m1 = -m1 m0; m0 commutes with itself, so at odd p, where -1 != 1,
    # a second factor that induces m0 again is planted not to graded-commute
    f, ef = periodic_variable_complex(p, 1, 8, prefix="x")
    g, eg = periodic_variable_complex(p, 1, 8, prefix="y")
    induced = construction.induced_chain_map
    product = tensor_many([f, g])
    m0, m1 = induced(product, 0, ef), induced(product, 1, eg)
    assert _commute(m0, m1) and _commute(m1, m0)
    assert _commute(m0, m0) == (p == 2)
    monkeypatch.setattr(construction, "induced_chain_map",
                        lambda product, i, eta: induced(product, 0, ef))
    if p == 2:
        assert run_construction([f, g], [ef, eg]) is not None
    else:
        with pytest.raises(SyzkitError, match="induced maps 0 and 1 do not commute"):
            run_construction([f, g], [ef, eg])


@pytest.mark.parametrize("p", PLANTED_PRIMES)
def test_a_projection_that_does_not_kill_the_inclusion_is_refused(p):
    # E^1 is the product's subcomplex on the labels with a_1 = 0, which the
    # first induced map kills; planting a 1 in its column of such a label
    # on F_4 makes the composite nonzero there
    f, ef = periodic_variable_complex(p, 1, 6, prefix="x")
    g, eg = periodic_variable_complex(p, 2, 6, prefix="y")
    product = tensor_many([f, g])
    m0, m1 = induced_chain_map(product, 0, ef), induced_chain_map(product, 1, eg)
    comp = m0.component(4)
    b = product.labels[4].index(((0, 0), (4, 0)))
    cols = [vector(product.ring, comp.target_degrees, g + m0.twist, {0: 1} if k == b else {})
            for k, g in enumerate(comp.source_degrees)]
    comps = list(m0.components)
    comps[4] = _plus(comp, FreeMap.from_dense(product.ring, comp.source_degrees,
                                              comp.target_degrees, cols, comp.twist))
    bad = ChainMap(product, product, m0.shift, m0.twist, comps)
    assert [r.ok for r in build_e_sequence(product, [m0, m1])[1]] == [True, True]
    reports = build_e_sequence(product, [bad, m1])[1]
    assert not reports[0].ok
    assert reports[0].detail == "composite nonzero at homological degree 4"


def test_e_sequence_shifted_factor():
    f, ef = period_one_factor(window=12)
    g, eg = periodic_variable_complex(2, 2, 12, prefix="y")
    complexes, reports = e_sequence([f, g], [ef, eg])
    assert all(r.ok for r in reports)
    for j in range(complexes[0].window + 1):
        assert complexes[1].rank(j) == complexes[2].rank(j) + complexes[1].rank(j - 2)


def test_run_construction_flagship():
    f, ef = period_one_factor(window=13)
    g, eg = periodic_variable_complex(2, 1, 13, prefix="y")
    result = run_construction([f, g], [ef, eg])
    assert [e.value for e in result.complexity_chain] == [2, 1, 0]
    assert result.chain_strictly_decreasing
    assert all(r.ok for r in result.ses_reports)
    assert result.cone_bettis[0] == [j + 1 for j in range(result.window)]
    assert not result.infinite_ci_witness  # period 1 is not > 2


def test_run_construction_single_period_two_factor():
    g = period_two_hypersurface_complex(window=12)
    cert = detect_complex_periodicity(g)
    result = run_construction([g], [cert.witness])
    assert [e.value for e in result.complexity_chain] == [1, 0]
    assert not result.infinite_ci_witness
    assert "period 2" in result.witness_reason


def test_run_construction_period_four_witness():
    f, ef = period_one_factor(window=12)
    g, eg = periodic_variable_complex(2, 4, 12, prefix="y")
    result = run_construction([f, g], [ef, eg])
    assert result.witness_configuration
    assert result.last_e_certificate is not None
    assert result.last_e_certificate.period == 4
    assert result.last_e_complexity.value == 1
    assert result.infinite_ci_witness
    assert [e.value for e in result.complexity_chain] == [2, 1, 0]


def test_corollary_module_flagship_is_residue_field():
    f, ef = period_one_factor(window=13)
    g, eg = periodic_variable_complex(2, 1, 13, prefix="y")
    result = run_construction([f, g], [ef, eg])
    cor = corollary_module(result)
    assert dims(cor.module, 4) == [1, 0, 0, 0, 0]
    assert cor.betti_matches_product
    assert cor.sup_product == 0
    assert cor.transport_complete
    assert [s.complexity.value for s in cor.steps] == [1, 0]
    assert cor.reddeg_lower_bound == 1


def test_corollary_module_single_factor_coker():
    g = period_two_hypersurface_complex(window=12)
    cert = detect_complex_periodicity(g)
    result = run_construction([g], [cert.witness])
    cor = corollary_module(result)
    assert dims(cor.module, 5) == [1, 1, 1, 1, 1, 1]  # A/(x) again


def test_minimize_cone_recovers_kernel_ranks():
    f, ef = period_one_factor()
    g, eg = periodic_variable_complex(2, 1, W, prefix="y")
    prod = tensor_many([f, g])
    c1 = cone(induced_chain_map(prod, 0, ef))
    small = minimize_complex(c1)
    assert small.verify()
    bettis = c1.minimal_bettis(c1.window)
    for j in range(1, c1.window):
        assert small.rank(j) == bettis[j]


def _plus_multiple(f, c, g, p):
    """f + c g for polynomial dicts, dropping zero coefficients."""
    out = dict(f)
    for m, a in g.items():
        v = (out.get(m, 0) + c * a) % p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _minimize_by_polynomials(cx):
    """The reference for minimize_complex: Schur complements of the
    differentials as matrices of polynomial dicts, at the first unit entry
    (smallest j, then row, then column), rescanning from j = 1 after each."""
    ring = cx.ring
    p = ring.char
    gens = [list(g) for g in cx.gens]
    mats = [None] + [cx.diff(j).to_poly_matrix() if cx.diff(j).source_degrees else []
                     for j in range(1, cx.window + 1)]
    zero_exp = (0,) * len(ring.vars)

    def unit_entry(j):
        for r, row in enumerate(mats[j]):
            for c, f in enumerate(row):
                if f.get(zero_exp, 0) % p:
                    return r, c, f[zero_exp]
        return None

    changed = True
    while changed:
        changed = False
        for j in range(1, len(mats)):
            hit = unit_entry(j)
            if hit is None:
                continue
            r, c, u = hit
            uinv = pow(u, -1, p)
            mat = mats[j]
            mats[j] = [[_plus_multiple(mat[a][b], -uinv, poly_mul(mat[a][c], mat[r][b], p), p)
                        for b in range(len(mat[0])) if b != c]
                       for a in range(len(mat)) if a != r]
            if j + 1 < len(mats) and mats[j + 1]:
                mats[j + 1] = [row for a, row in enumerate(mats[j + 1]) if a != c]
                if mats[j + 1] and not mats[j + 1][0]:
                    mats[j + 1] = []
            if j - 1 >= 1 and mats[j - 1]:
                mats[j - 1] = [[e for b, e in enumerate(row) if b != r] for row in mats[j - 1]]
                if mats[j - 1] and not mats[j - 1][0]:
                    mats[j - 1] = []
            del gens[j][c]
            del gens[j - 1][r]
            changed = True
            break
    diffs = [None]
    for j in range(1, len(mats)):
        if not gens[j] or not mats[j] or not gens[j - 1]:
            diffs.append(FreeMap.zero(ring, gens[j], gens[j - 1]))
        else:
            diffs.append(FreeMap.from_poly_matrix(ring, gens[j - 1], gens[j], mats[j]))
    return FreeComplex(ring, gens, diffs)


def _nonminimal_complex(kind, p):
    """A seeded non-minimal complex at p: the cone of the identity or of a
    scaled identity on a resolution over a ring of dense quadrics, or the
    cone of an induced map on a tensor product of periodic factors."""
    rng = random.Random(p + len(kind))
    if kind == "tensor":
        f, _ = periodic_variable_complex(p, 1, 6, prefix="x")
        g, eg = periodic_variable_complex(p, 2, 6, prefix="y")
        return cone(induced_chain_map(tensor_many([f, g]), 1, eg))
    names = ["x", "y", "z"]
    mons = [a + "*" + b for i, a in enumerate(names) for b in names[i:]]
    quadrics = [" + ".join(f"{rng.randrange(1, p)}*{m}" for m in mons) for _ in range(2)]
    r = ring_from_strings(p, names, quadrics, degree_bound=8)
    if kind == "identity":
        return cone(identity_chain_map(resolve(residue_field(r), 4)))
    c = rng.randrange(1, p)
    m = module_from_strings(r, [0, 1], [["x", "0"], ["y", "0"], ["0", "x"], ["z^2", f"{c}*y"]])
    return cone(chain_scale(identity_chain_map(resolve(m, 4)), rng.randrange(1, p)))


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
@pytest.mark.parametrize("kind", ["identity", "scaled", "tensor"])
def test_minimize_matches_the_polynomial_reference(kind, p):
    cx = _nonminimal_complex(kind, p)
    got, want = minimize_complex(cx), _minimize_by_polynomials(cx)
    assert sum(got.ranks()) < sum(cx.ranks())
    assert got.gens == want.gens
    assert all(equals(a, b) for a, b in zip(got.diffs[1:], want.diffs[1:]))
    assert got.is_minimal()


def test_coker_module_of_resolution_complex():
    r = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"], degree_bound=10)
    res = resolve(residue_field(r), 6)
    m = coker_module(res, 0)
    assert dims(m, 3) == [1, 0, 0, 0]


def test_cone_triangle_rank_consistency():
    # minimal Betti of the cone is bounded by the triangle's two endpoints
    f, ef = period_one_factor(window=12)
    g, eg = periodic_variable_complex(2, 1, 12, prefix="y")
    prod = tensor_many([f, g])
    m1 = induced_chain_map(prod, 0, ef)
    c1 = cone(m1)
    n = m1.shift
    bettis = c1.minimal_bettis(c1.window)
    for j in range(1, c1.window):
        assert bettis[j] <= prod.rank(j - 1) + prod.rank(j - n)
        assert c1.rank(j) == prod.rank(j - 1) + prod.rank(j - n)


def test_induced_map_on_single_factor_is_the_map_itself():
    g, eg = periodic_variable_complex(2, 1, W, prefix="y")
    prod = tensor_many([g])
    ind = induced_chain_map(prod, 0, eg)
    assert ind.shift == eg.shift and ind.twist == eg.twist
    for j in range(prod.window + 1):
        assert np.array_equal(
            np.concatenate(columns(ind.component(j)) or [np.zeros(0)]),
            np.concatenate(columns(eg.component(j)) or [np.zeros(0)]),
        )


def test_e_sequence_single_period_one_factor():
    f, ef = period_one_factor()
    complexes, reports = e_sequence([f], [ef])
    assert reports[0].ok
    # 0 -> F_{<1} -> F -> shifted F -> 0: ranks 1 = [j = 0] + 1
    for j in range(f.window + 1):
        assert complexes[0].rank(j) == complexes[1].rank(j) + complexes[0].rank(j - 1)


def test_corollary_deformation_keeps_witness():
    # extend the flagship cokernel to a positive-depth ring: depth rises by
    # one and the reduction witness survives
    from syzkit.homological import reduction_search
    from syzkit.modules import module_from_strings as mfs
    from syzkit.resolutions import depth

    f, ef = period_one_factor(window=13)
    g, eg = periodic_variable_complex(2, 1, 13, prefix="y")
    result = run_construction([f, g], [ef, eg])
    cor = corollary_module(result)
    base_depth = depth(cor.module).depth
    ext_ring = polynomial_extension(result.product.ring, 1, degree_bound=14)
    lifted = mfs(ext_ring, [0], [["x"], ["y"]])
    assert depth(lifted).depth == base_depth + 1
    seq = reduction_search(lifted, window=8)
    assert seq is not None and seq.chain_values()[0] == 2
    assert seq.chain_values()[-1] == 0


def test_cone_minimal_model_matches_kernel_complex():
    # the cone of a surjective chain map is the shifted kernel up to
    # homotopy, and the kernel here is the truncated product, already minimal
    f, ef = period_one_factor()
    g, eg = periodic_variable_complex(2, 1, W, prefix="y")
    prod = tensor_many([f, g])
    m1 = induced_chain_map(prod, 0, ef)
    c1 = cone(m1)
    kernel_like = e_sequence([f, g], [ef, eg])[0][1]
    bettis = c1.minimal_bettis(c1.window)
    for j in range(1, c1.window):
        assert bettis[j] == kernel_like.rank(j - 1)


def test_run_construction_rejects_wrong_period_claim():
    import pytest as _pytest

    f, ef = period_one_factor()
    doubled = chain_compose(ef, ef)  # a fine chain map, but the period is 1, not 2
    assert doubled.verify() and doubled.is_surjective()
    with _pytest.raises(SyzkitError):
        run_construction([f], [doubled])


def test_homology_reads_generators_below_degree_zero():
    # one generator in degree -2 over F_2[x]/(x^2): H_0 = R(2) has
    # dimension 2, in degrees -2 and -1, and so has its twist by 2, the
    # complex on one generator in degree 0
    r = ring_from_strings(2, ["x"], ["x^2"], degree_bound=6)
    zero = FreeMap.zero(r, (), ())
    for g in (-2, 0):
        cx = FreeComplex(r, [(g,), (), ()], [None, FreeMap.zero(r, (), (g,)), zero])
        homology = cx.homology()
        assert [homology.dim(0, d) for d in range(g - 2, g + 4)] == [0, 0, 1, 1, 0, 0]
        assert cx.sup_within_window() == 0


def test_induced_on_cone_takes_its_signs_from_the_shift():
    # at p = 3, where -1 != 1: on the cone of the map phi that the first
    # factor's period n induces on a product, the map psi that the second
    # factor's period m induces graded-commutes with phi, and the z-block of
    # the map it induces on the cone is (-1)^(m(n+1)) psi
    for n, m in [(1, 1), (2, 1), (1, 2)]:
        f, ef = periodic_variable_complex(3, n, 6, prefix="x")
        g, eg = periodic_variable_complex(3, m, 6, prefix="y")
        product = tensor_many([f, g])
        phi, psi = induced_chain_map(product, 0, ef), induced_chain_map(product, 1, eg)
        cn = cone(phi)
        ind = induced_on_cone(cn, psi)
        sign = (-1) ** (m * (n + 1))
        for j in range(n, cn.window + 1):
            nx, low = product.rank(j - 1), product.rank(j - 1 - m)
            z_block = ind.component(j).restrict(range(nx, cn.rank(j)),
                                                range(low, cn.rank(j - m)))
            assert equals(z_block, scale(psi.component(j - n), sign % 3)), (n, m, j)
    # psi_j = a_j x (shift 0, twist 1) is a chain map for any a_j, as x^2 = 0;
    # with a_j alternating it does not commute with eta
    cx, eta = periodic_variable_complex(3, 1, 6, prefix="x")
    r = cx.ring
    cn = cone(eta)
    comps = [FreeMap.from_poly_matrix(r, (j,), (j,), [[{(1,): 1} if j % 2 else {}]], 1)
             for j in range(cx.window + 1)]
    psi = ChainMap(cx, cx, 0, 1, comps)
    assert psi.verify()
    with pytest.raises(SyzkitError, match="does not commute"):
        induced_on_cone(cn, psi)


# -- the record builders against per-piece references -------------------------
#
# The references build every piece one at a time, as the builders did before
# they worked from whole records: each factor piece is embedded by its own
# product, signed and placed at its target, and each column is written out
# with test_freemod.vector, so no reference goes through a FreeMap constructor.


def _embedded(ring, factor_ring, piece, e):
    return matmul(_Embedding(factor_ring, ring).matrix(e), np.reshape(piece, (-1, 1)),
                  ring.char)[:, 0]


def _embedding_by_normal_forms(factor_ring, ring, e):
    """The factor's R_e inside the product's, one monomial at a time: each
    basis monomial re-indexed onto the product's variables and reduced by
    `normal_form`."""
    pos = {v: i for i, v in enumerate(ring.vars)}
    cols = []
    for mono in factor_ring.basis_monomials(e):
        big = [0] * len(ring.vars)
        for k, v in zip(mono, factor_ring.vars):
            big[pos[v]] += k
        cols.append(ring.normal_form({tuple(big): 1}, degree=e))
    return np.stack(cols, axis=1) if cols else np.zeros((ring.dim(e), 0), dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_embedding_matches_the_per_monomial_normal_forms(p):
    from functools import reduce

    from syzkit.rings import algebra_tensor

    bound = 6
    factors = [ring_from_strings(p, ["x", "y"], ["x^2 + x*y + 3*y^2"], bound),
               ring_from_strings(p, ["z"], ["z^3"], bound),
               ring_from_strings(p, ["u", "v"], ["u^2", "u*v + v^2"], bound)]
    # the last two end within D, so their product is known above D too
    for group, top in ((factors, bound), (factors[1:], bound + 2)):
        ring = reduce(algebra_tensor, group)
        for factor in group:
            for e in range(-1, top + 1):
                got = _Embedding(factor, ring).matrix(e)
                assert got.dtype == np.int64
                assert np.array_equal(got, _embedding_by_normal_forms(factor, ring, e)), e
                assert got.shape == (ring.dim(e), factor.dim(e))


def _dense(ring, sources, targets, twist, cols):
    return [vector(ring, targets, g + twist, col) for g, col in zip(sources, cols)]


def reference_tensor(factors, ring):
    """gens, labels and per degree the dense columns of d_j of the product."""
    w = min(f.window for f in factors)
    labels = [[()]] + [[] for _ in range(w)]
    for f in factors:
        labels = [[lab + ((j - a, u),) for a in range(j + 1) for lab in labels[a]
                   for u in range(f.rank(j - a))] for j in range(w + 1)]
    gens = [tuple(sum(f.gen_degrees(a)[u] for f, (a, u) in zip(factors, lab)) for lab in row)
            for row in labels]
    pos = [{lab: i for i, lab in enumerate(row)} for row in labels]
    diffs = [None]
    for j in range(1, w + 1):
        cols = []
        for lab in labels[j]:
            col, left_degree = {}, 0
            for k, (f, (a, u)) in enumerate(zip(factors, lab)):
                fd = f.diff(a)
                if fd is not None:
                    for c, piece in blocks(fd, u):
                        target = pos[j - 1][lab[:k] + ((a - 1, c),) + lab[k + 1:]]
                        e = f.gen_degrees(a)[u] - fd.target_degrees[c]
                        col[target] = ((-1) ** left_degree
                                       * _embedded(ring, f.ring, piece, e)) % ring.char
                left_degree += a
            cols.append(col)
        diffs.append(_dense(ring, gens[j], gens[j - 1], 0, cols))
    return gens, labels, diffs


def reference_induced(product, factor_index, eta):
    """Per degree the dense columns of id (x) .. (x) eta (x) .. (x) id."""
    ring, n, tau = product.ring, eta.shift, eta.twist
    pos = [{lab: i for i, lab in enumerate(row)} for row in product.labels]
    comps = []
    for j in range(product.window + 1):
        cols = []
        for lab in product.labels[j]:
            aa, ui = lab[factor_index]
            sign = (-1) ** (n * sum(h for h, _ in lab[:factor_index]))
            comp, col = eta.component(aa), {}
            for c, piece in blocks(comp, ui):
                t = pos[j - n][lab[:factor_index] + ((aa - n, c),) + lab[factor_index + 1:]]
                e = comp.source_degrees[ui] + tau - comp.target_degrees[c]
                col[t] = (sign * _embedded(ring, eta.source.ring, piece, e)) % ring.char
            cols.append(col)
        comps.append(_dense(ring, product.gen_degrees(j), product.gen_degrees(j - n), tau,
                            cols))
    return comps


def reference_cone(phi):
    """gens and per degree the dense columns of the cone's d_j."""
    x, z, ring = phi.source, phi.target, phi.source.ring
    n, tau, p = phi.shift, phi.twist, phi.source.ring.char
    gens = [tuple(g + tau for g in x.gen_degrees(j - 1)) + z.gen_degrees(j - n)
            for j in range(x.window + 1)]
    diffs = [None]
    for j in range(1, x.window + 1):
        nx = x.rank(j - 2)
        dx, comp, dz = x.diff(j - 1), phi.component(j - 1), z.diff(j - n)
        cols = []
        for b in range(x.rank(j - 1)):
            col = {nx + c: piece for c, piece in blocks(comp, b)}
            if dx is not None:
                col.update((c, (-piece) % p) for c, piece in blocks(dx, b))
            cols.append(col)
        for b in range(z.rank(j - n)):
            cols.append({} if dz is None else
                        {nx + c: ((-1) ** n * piece) % p for c, piece in blocks(dz, b)})
        diffs.append(_dense(ring, gens[j], gens[j - 1], 0, cols))
    return gens, diffs


def reference_induced_on_cone(cone_cx, psi):
    """Per degree the dense columns of the map psi induces on the cone."""
    x, n = cone_cx._cone_of.source, cone_cx._cone_of.shift
    m, p = psi.shift, cone_cx.ring.char
    comps = []
    for j in range(cone_cx.window + 1):
        nx = x.rank(j - m - 1)
        cols = [dict(blocks(psi.component(j - 1), b)) for b in range(x.rank(j - 1))]
        cols += [{nx + c: ((-1) ** (m * (n + 1)) * piece) % p
                  for c, piece in blocks(psi.component(j - n), b)}
                 for b in range(cone_cx._cone_of.target.rank(j - n))]
        comps.append(_dense(cone_cx.ring, cone_cx.gen_degrees(j),
                            cone_cx.gen_degrees(j - m), psi.twist, cols))
    return comps


def assert_columns(fmaps, want):
    """Each map has the reference's dense columns, and its records are in
    order of their source generators, as `FreeMap.compose` searches them."""
    assert len(fmaps) == len(want)
    for j, (fmap, cols) in enumerate(zip(fmaps, want)):
        if fmap is None:
            assert cols is None, j
            continue
        got = columns(fmap)
        assert len(got) == len(cols), j
        assert all(np.array_equal(a, b) for a, b in zip(got, cols)), j
        assert all((bs[1:] >= bs[:-1]).all() for bs, _, _ in fmap.records()), j


def _scaled_factor(p, period, window, prefix, c, k):
    """A periodic factor with its differentials times c and its period map
    times k, both units mod p."""
    cx, eta = periodic_variable_complex(p, period, window, prefix=prefix)
    cx = FreeComplex(cx.ring, cx.gens, [None] + [scale(d, c) for d in cx.diffs[1:]])
    return cx, ChainMap(cx, cx, eta.shift, eta.twist, [scale(f, k) for f in eta.components])


def _gapped_factor(p):
    """R <- R(-1)^2 <- 0 <- R(-3) over F_p[w]/(w^2), d_1 = (w, 0) given with
    its zero piece, so term 2 is empty, with the zero period-2 map."""
    r = ring_from_strings(p, ["w"], ["w^2"], degree_bound=8)
    gens = [(0,), (1, 1), (), (3,)]
    d1 = from_columns(r, gens[1], gens[0], [{0: np.ones(1, dtype=np.int64)},
                                            {0: np.zeros(1, dtype=np.int64)}])
    diffs = [None, d1, FreeMap.zero(r, gens[2], gens[1]), FreeMap.zero(r, gens[3], gens[2])]
    cx = FreeComplex(r, gens, diffs)
    comps = [FreeMap.zero(r, gens[j], gens[j - 2] if j >= 2 else (), -2) for j in range(4)]
    return cx, ChainMap(cx, cx, 2, -2, comps)


@pytest.mark.parametrize("p", PLANTED_PRIMES)
def test_record_builders_match_the_per_piece_references(p):
    # three periodic factors of shifts 1, 1 and 2 with scaled differentials
    # and period maps (nonzero twists), and a factor with an empty term and
    # a zero piece.  The induced maps of odd shift on factors 1 and 2 carry
    # the Koszul sign.  As the construction does, the last map is coned off
    # and the others induce maps on the cone, repeatedly: the shift-1 maps
    # on the cone of the shift-2 one carry (-1)^(m(n+1)) = -1, the second
    # cone has scalar blocks from both -dx and phi in one pair of degrees,
    # so its records are joined and sorted, and every cone starts with an
    # empty term
    c, k = (1, 1) if p == 2 else (p - 2, (p + 1) // 2)
    factors = [_scaled_factor(p, 1, 5, "x", c, k), _scaled_factor(p, 1, 5, "y", k, c),
               _scaled_factor(p, 2, 5, "z", c, c)]
    joined = 0
    for cxs, etas in [tuple(zip(*factors)), tuple(zip(factors[0], _gapped_factor(p)))]:
        product = tensor_many(list(cxs))
        gens, labels, diffs = reference_tensor(list(cxs), product.ring)
        assert (product.gens, product.labels) == (gens, labels)
        assert_columns(product.diffs, diffs)
        maps = [induced_chain_map(product, i, eta) for i, eta in enumerate(etas)]
        for i, eta in enumerate(etas):
            assert_columns(maps[i].components, reference_induced(product, i, eta))
        while len(maps) > 1:
            cn = cone(maps[-1])
            gens, diffs = reference_cone(maps[-1])
            assert cn.gens == gens
            assert_columns(cn.diffs, diffs)
            # a group holding pieces of both -dx and phi
            joined += sum(((cs < cn._cone_of.source.rank(j - 2)).any()
                           and (cs >= cn._cone_of.source.rank(j - 2)).any())
                          for j in range(1, cn.window + 1) for _, cs, _ in cn.diff(j).records())
            psis, maps = maps[:-1], [induced_on_cone(cn, psi) for psi in maps[:-1]]
            for psi, ind in zip(psis, maps):
                assert_columns(ind.components, reference_induced_on_cone(cn, psi))
    assert joined
    # the gapped factor's term 2 is empty and its zero piece is dropped
    gapped = _gapped_factor(p)[0]
    assert gapped.rank(2) == 0 and len(gapped.diff(1).records()[0][0]) == 1


def test_each_factor_map_is_embedded_once(monkeypatch):
    # tensor_many and induced_chain_map carry each factor differential and
    # each component of eta into the product ring by one product per group
    # of its pieces, however many product generators the pieces reach
    factors = [_scaled_factor(3, 1, 5, "x", 2, 1), _scaled_factor(3, 2, 5, "y", 1, 2),
               _gapped_factor(3)]
    calls = []
    monkeypatch.setattr(complexes, "matmul",
                        lambda a, b, p: calls.append(a.shape) or matmul(a, b, p))
    product = tensor_many([f for f, _ in factors])
    w = product.window
    assert len(calls) == sum(len(f.diff(a).records()) for f, _ in factors
                             for a in range(1, w + 1)) > 0
    for i, (_, eta) in enumerate(factors):
        calls.clear()
        induced_chain_map(product, i, eta)
        assert len(calls) == sum(len(eta.component(a).records()) for a in range(w + 1))
