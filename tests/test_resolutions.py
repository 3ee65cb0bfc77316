import math

import numpy as np
import pytest

from syzkit.errors import DegreeBoundError, SyzkitError, WindowError
from syzkit.modules import free_module, module_from_strings, residue_field
from syzkit.resolutions import (
    complexity_of_module,
    depth,
    depth_of_ring,
    detect_resolution_periodicity,
    estimate_complexity,
    resolve,
    syzygy,
)
from syzkit.rings import ring_from_strings


def test_residue_field_over_one_variable_hypersurface():
    r = ring_from_strings(2, ["x"], ["x^2"], degree_bound=14)
    res = resolve(residue_field(r), 12)
    assert res.betti() == [1] * 13
    # every differential is multiplication by x
    for i in range(1, 13):
        pm = res.diffs[i].to_poly_matrix()
        assert pm == [[{(1,): 1}]]


def test_free_module_resolution_terminates():
    r = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"])
    res = resolve(free_module(r), 5)
    assert res.betti() == [1, 0, 0, 0, 0, 0]
    assert res.proj_dim() == 0


def test_residue_field_complete_intersection_linear_growth():
    r = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"], degree_bound=12)
    res = resolve(residue_field(r), 9)
    assert res.betti() == [i + 1 for i in range(10)]
    assert res.is_minimal()


def test_verify_complex_rejects_a_broken_cover():
    # M = R/(x) (+) R/(y): the first relation column x*e_1 dies under the
    # cover, but not once the first cover vector is replaced by e_1 + e_2
    r = ring_from_strings(5, ["x", "y"], [], degree_bound=8)
    m = module_from_strings(r, [0, 0], [["x", "0"], ["0", "y"]])
    res = resolve(m, 3)
    assert res.verify_complex()
    (deg, vec), _ = res.cover
    assert list(vec) == [1, 0]
    res.cover[0] = (deg, (vec + res.cover[1][1]) % r.char)
    assert not res.verify_complex()


def test_verify_complex_rejects_a_broken_second_differential():
    # Koszul resolution of k over F_5[x, y]; adding x*e_1 to the d_2 column
    # gives d_1 d_2 = x^2 != 0
    r = ring_from_strings(5, ["x", "y"], [], degree_bound=8)
    res = resolve(residue_field(r), 3)
    assert res.betti() == [1, 2, 1, 0]
    assert res.verify_complex()
    col = res.diffs[2].columns[0]
    col[0] = (col[0] + 1) % r.char
    assert not res.verify_complex()


def test_residue_field_golod_doubling():
    r = ring_from_strings(2, ["x", "y"], ["x^2", "x*y", "y^2"], degree_bound=10)
    res = resolve(residue_field(r), 8)
    assert res.betti() == [2**i for i in range(9)]


def test_cross_check_betti_against_tensor_homology():
    # rank of F_i equals dim_k of the i-th homology of F tensor k, computed
    # through the other factor's resolution (independent route)
    r = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=10)
    m = module_from_strings(r, [0], [["x"]])
    res = resolve(m, 6)
    k = residue_field(r)
    from syzkit.homological import tor

    profile = tor(k, m, 6)
    for i in range(7):
        assert res.betti()[i] == sum(profile.dims[i].values())


def test_syzygy_examples():
    r = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"], degree_bound=12)
    k = residue_field(r)
    res = resolve(k, 4)
    assert syzygy(res, 0) is k
    om1 = syzygy(res, 1)
    assert om1.gen_degrees == (1, 1)
    free_res = resolve(free_module(r), 3)
    om_free = syzygy(free_res, 1)
    assert om_free.is_zero()


def test_artinian_ring_resolves_past_degree_bound():
    # once the ring collapses, every higher component is known to vanish, so
    # long windows need no extra degree headroom
    r = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"], degree_bound=5)
    res = resolve(residue_field(r), 10)
    assert res.betti() == [i + 1 for i in range(11)]


def test_degree_bound_error_over_hypersurface_margin():
    r = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=6)
    with pytest.raises(DegreeBoundError):
        resolve(module_from_strings(r, [0], [["x"]]), 8)


def test_zero_module_rejected():
    r = ring_from_strings(2, ["x", "y"], [])
    with pytest.raises(SyzkitError):
        resolve(module_from_strings(r, [], []), 3)


def test_determinism_bitwise():
    r1 = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"], degree_bound=10)
    r2 = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"], degree_bound=10)
    res1 = resolve(residue_field(r1), 6)
    res2 = resolve(residue_field(r2), 6)
    assert res1.betti() == res2.betti()
    for a, b in zip(res1.diffs[1:], res2.diffs[1:]):
        assert a.equals(b) or (not a.source_degrees and not b.source_degrees)


def test_periodicity_period_one():
    r = ring_from_strings(2, ["x"], ["x^2"], degree_bound=12)
    res = resolve(residue_field(r), 8)
    info = detect_resolution_periodicity(res)
    assert info is not None and info.period == 1


def test_periodicity_period_two():
    r = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=14)
    res = resolve(module_from_strings(r, [0], [["x"]]), 8)
    info = detect_resolution_periodicity(res)
    assert info is not None and info.period == 2


def test_periodicity_absent_for_free():
    r = ring_from_strings(3, ["x", "y"], ["x*y"])
    res = resolve(free_module(r), 6)
    assert detect_resolution_periodicity(res) is None


def test_estimate_complexity_statuses():
    assert estimate_complexity([1] + [0] * 9).value == 0
    assert estimate_complexity([1] + [0] * 9).status == "exact-finite-pd"
    est = estimate_complexity([1] * 10, periodicity_hint=1)
    assert est.value == 1 and est.status == "exact-periodic"
    est2 = estimate_complexity([i + 1 for i in range(11)])
    assert est2.value == 2 and est2.status == "estimated"
    # a short window cannot certify superpolynomial growth; the estimate
    # must at least exceed the polynomial candidates it rules out
    est3 = estimate_complexity([2**i for i in range(11)])
    assert est3.status == "estimated" and est3.value >= 3
    est4 = estimate_complexity([3**i for i in range(16)], window=15)
    assert est4.value == math.inf


def test_estimate_complexity_window_too_small():
    with pytest.raises(WindowError):
        estimate_complexity([1, 2, 3])


def test_complexity_of_module_pipeline():
    r = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"], degree_bound=14)
    est, _ = complexity_of_module(residue_field(r), window=10)
    assert est.value == 2
    r1 = ring_from_strings(2, ["x"], ["x^2"], degree_bound=14)
    est1, _ = complexity_of_module(residue_field(r1), window=10)
    assert est1.value == 1 and est1.status == "exact-periodic"


def test_depth_examples():
    s = ring_from_strings(5, ["x", "y"], [])
    assert depth(free_module(s)).depth == 2

    r = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"])
    assert depth(residue_field(r)).depth == 0

    rxy = ring_from_strings(3, ["x", "y"], ["x*y"])
    m = module_from_strings(rxy, [0], [["x"]])
    assert depth(m).depth == 1


def test_depth_of_ring_examples():
    assert depth_of_ring(ring_from_strings(2, ["x", "y"], ["x^2", "y^2"])).depth == 0
    assert depth_of_ring(ring_from_strings(3, ["x", "y"], ["x*y"])).depth == 1
    assert depth_of_ring(ring_from_strings(5, ["x", "y"], [])).depth == 2


def test_depth_zero_iff_visible_socle():
    # independent oracle on a handful of modules: a nonzero socle element
    # in the window forces depth 0
    rxy = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=10)
    n = module_from_strings(rxy, [0], [["x^2"]])
    assert any(n.socle_dim(d) > 0 for d in range(6))
    assert depth(n).depth == 0
    m = module_from_strings(rxy, [0], [["x"]])  # depth 1, no socle
    assert all(m.socle_dim(d) == 0 for d in range(6))
    assert depth(m).depth == 1


def test_euler_characteristic_identity_random_modules():
    # independent oracle: for a finite resolution, the alternating sum of
    # component dimensions recovers the module's Hilbert function exactly
    import random

    from syzkit.freemod import component_dim
    from syzkit.modules import module_from_presentation

    for p in (2, 5):
        ring = ring_from_strings(p, ["x", "y"], [], degree_bound=10)
        rng = random.Random(41 + p)
        for _ in range(6):
            while True:
                gens = sorted(rng.randint(0, 1) for _ in range(rng.randint(1, 2)))
                cols = []
                for _ in range(rng.randint(0, 2)):
                    rdeg = rng.randint(1, 3)
                    col = []
                    for g in gens:
                        f = {}
                        if rdeg - g >= 0:
                            for mono in ring.base.monomial_basis(rdeg - g):
                                c = rng.randrange(p)
                                if c:
                                    f[mono] = c
                        col.append(f)
                    cols.append(col)
                m = module_from_presentation(ring, gens, cols)
                if not m.is_zero():
                    break
            res = resolve(m, 3)
            assert res.terminated_at is not None
            for d in range(8):
                euler = sum(
                    (-1) ** i * component_dim(ring, res.gens[i], d)
                    for i in range(len(res.gens))
                )
                assert euler == m.dim(d), (p, gens, d)


def test_koszul_numbers_three_variables():
    # binomial(3, i) is forced for the residue field of a polynomial ring
    from math import comb

    s3 = ring_from_strings(2, ["x", "y", "z"], [], degree_bound=8)
    res = resolve(residue_field(s3), 4)
    assert res.betti() == [comb(3, i) for i in range(5)]
    assert res.proj_dim() == 3
    assert depth(residue_field(s3)).depth == 0


def test_residue_field_over_hypersurface_bounded():
    r = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=14)
    res = resolve(residue_field(r), 8)
    assert res.betti() == [1] + [2] * 8
    # the syzygies swap their two rank-one summands each step, so the tail
    # is 1-periodic up to twist (an antidiagonal isomorphism), not 2-periodic
    info = detect_resolution_periodicity(res)
    assert info is not None and info.period == 1 and info.twist == -1


def test_socle_quotient_over_complete_intersection():
    # R/(x*y) has first syzygy k(-2), so its Betti numbers are 1, 1, 2, 3, ...
    r = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"], degree_bound=12)
    m = module_from_strings(r, [0], [["x*y"]])
    res = resolve(m, 8)
    assert res.betti() == [1] + [i for i in range(1, 9)]


# -- exact arithmetic at p = 2^31 - 1 and the free-coordinate syzygy step -----

P31 = 2**31 - 1


def _dense_quadrics(p, names, count, seed):
    import random

    rng = random.Random(seed)
    mons = [f"{a}*{b}" for i, a in enumerate(names) for b in names[i:]]
    return [" + ".join(f"{rng.randrange(1, p)}*{m}" for m in mons) for _ in range(count)]


def test_residue_field_of_two_dense_quadrics_at_largest_prime():
    # a complete intersection of two quadrics in 3 variables: Tate's
    # (1+t)^3 / (1-t^2)^2 gives Betti numbers 1, 3, 5, 7, ...
    names = ["x", "y", "z"]
    r = ring_from_strings(P31, names, _dense_quadrics(P31, names, 2, 1), degree_bound=14)
    res = resolve(residue_field(r), 6)
    assert res.betti() == [1, 3, 5, 7, 9, 11, 13]
    assert res.verify_complex()


def _dense_kernel_generators(ring, src_degs, matrix_at, hi):
    """The syzygy step on the whole source component: minimal generators
    are the columns of ker_d extending the span of R_1 * ker_{d-1}, picked
    by rref([span | ker_d])."""
    from syzkit.freemod import component_dim, free_mult_matrix
    from syzkit.linalg import extend_basis, hstack, kernel_basis, matmul

    p = ring.char
    gens, prev = [], None
    for d in range(min(src_degs), hi + 1):
        kd = None
        src_dim = component_dim(ring, src_degs, d)
        if src_dim and any(d - g >= 1 and ring.dim(d - g) > 0 for g in src_degs):
            kd = kernel_basis(matrix_at(d), p)
        if kd is None or not kd.shape[1]:
            prev = None
            continue
        blocks = []
        if prev is not None:
            blocks = [matmul(free_mult_matrix(ring, src_degs, 1, j, d - 1), prev, p)
                      for j in range(ring.dim(1))]
        gens += [(d, kd[:, i]) for i in extend_basis(hstack(blocks, src_dim, p), kd, p)]
        prev = kd
    return gens


@pytest.mark.parametrize("case", ["ci", "golod", "cyclic"])
def test_kernel_generators_match_the_dense_step(case):
    from functools import partial

    from syzkit.modules import generator_matrix
    from syzkit.resolutions import DEFAULT_MARGIN, kernel_generators

    if case == "ci":
        r = ring_from_strings(32003, ["x", "y", "z"], ["x^2", "y^2", "z^2"], degree_bound=10)
        m, steps = residue_field(r), 5
    elif case == "golod":
        r = ring_from_strings(2, ["x", "y"], ["x^2", "x*y", "y^2"], degree_bound=10)
        m, steps = residue_field(r), 7
    else:
        names = ["x", "y", "z"]
        r = ring_from_strings(P31, names, _dense_quadrics(P31, names, 1, 3), degree_bound=9)
        m, steps = module_from_strings(r, [0], [["x"]]), 4
    res = resolve(m, steps)
    for i in range(1, steps + 1):
        if not res.gens[i - 1]:
            break
        if i == 1:
            matrix_at = partial(generator_matrix, m, res.cover)
        else:
            matrix_at = res.diffs[i - 1].induced
        got, hi = kernel_generators(r, res.gens[i - 1], matrix_at, DEFAULT_MARGIN)
        want = _dense_kernel_generators(r, res.gens[i - 1], matrix_at, hi)
        assert [d for d, _ in got] == [d for d, _ in want]
        assert all(np.array_equal(u, v) for (_, u), (_, v) in zip(got, want))
        assert len(got) == res.betti()[i]


def test_induced_matrix_exact_at_largest_prime():
    # over two dense quadrics the multiplication tables carry several large
    # entries per row, so block products sum three or more terms of size
    # about p^2, more than int64 holds
    from syzkit.freemod import FreeMap, component_dim, component_offsets

    names = ["x", "y", "z"]
    r = ring_from_strings(P31, names, _dense_quadrics(P31, names, 2, 5), degree_bound=8)
    rng = np.random.default_rng(11)
    src, tgt = (1, 2, 2), (0, 0, 1)
    cols = [rng.integers(P31 - 2**20, P31, size=component_dim(r, tgt, g)) for g in src]
    fmap = FreeMap(r, src, tgt, cols)
    for d in range(2, 6):
        want = np.zeros((component_dim(r, tgt, d), component_dim(r, src, d)), dtype=object)
        soffs, toffs = component_offsets(r, src, d), component_offsets(r, tgt, d)
        for b, g in enumerate(src):
            coffs = component_offsets(r, tgt, g)
            for j in range(r.dim(d - g)):
                for c, h in enumerate(tgt):
                    block = r.mult_map(d - g, j, g - h).tolist()
                    piece = [int(v) for v in cols[b][coffs[c]:coffs[c + 1]]]
                    for row, entries in enumerate(block):
                        want[toffs[c] + row, soffs[b] + j] = (
                            sum(x * y for x, y in zip(entries, piece)) % P31)
        assert fmap.induced(d).tolist() == want.tolist()


@pytest.mark.parametrize("p", [2, 32003, P31])
def test_compose_matches_per_column_apply(p):
    # compose makes one induced matrix and one product per degree of the
    # inner map's columns; the reference applies the outer map to each
    # column on its own, in Python integers
    from syzkit.freemod import FreeMap, component_dim

    names = ["x", "y", "z"]
    r = ring_from_strings(p, names, _dense_quadrics(p, names, 1, 7), degree_bound=7)
    rng = np.random.default_rng(p % 1000)

    def random_map(src, tgt, twist, zero_columns=()):
        cols = [rng.integers(0, p, size=component_dim(r, tgt, g + twist)) for g in src]
        for b in zero_columns:
            cols[b][:] = 0
        return FreeMap(r, src, tgt, cols, twist)

    # several source generators of degree 1; a generator at -3 whose column
    # is empty; a target generator at 9, above the degree bound, whose
    # blocks are empty in every degree; a zero column
    inner = random_map((1, 1, 1, 2, -3, 1, 4), (0, 0, 1, 5), 1, zero_columns=(5,))
    outer = random_map((0, 0, 1, 5), (0, 0, 2, 9), 2)
    got = outer.compose(inner)
    assert got.source_degrees == inner.source_degrees
    assert got.target_degrees == outer.target_degrees
    assert got.twist == 3
    assert inner.columns[4].shape == (0,)
    assert got.columns[4].tolist() == [0, 0]
    for b, g in enumerate(inner.source_degrees):
        mat = outer.induced(g + inner.twist).tolist()
        col = [int(v) for v in inner.columns[b]]
        want = [sum(x * y for x, y in zip(row, col)) % p for row in mat]
        assert got.columns[b].tolist() == want


# -- the periodicity certificate of a resolution tail ---------------------------

# (char, variables, relations, linear forms of M = R/(forms); none means k).
# Their (period, onset) pairs include onsets 1 and 2, and R/(x) over k[x,y]/(xy)
# has period 2 with shift 1 ruled out on its shortest tail.
PERIODIC_CASES = [
    (3, ["x", "y"], ["x*y"], []),
    (3, ["x", "y"], ["x*y"], ["x"]),
    (2, ["x"], ["x^2"], []),
    (5, ["x", "y"], ["3*x^2 + 2*x*y"], ["2*x + 3*y"]),
    (32003, ["x", "y", "z"], ["x*y"], []),
    (32003, ["x", "y", "z"], ["17162*x*y + 26637*y^2", "29256*x^2 + 1371*y*z + 11819*z^2"],
     ["20570*y + 17414*z", "108*y + 2297*z"]),
    (2, ["x", "y", "z"], ["y^2 + z^2", "y^2 + y*z"], []),
    (2, ["x", "y"], ["x^2", "y^2"], []),
]


def _periodic_case_resolution(case, window=8):
    p, names, rels, forms = case
    r = ring_from_strings(p, names, rels, degree_bound=12)
    m = module_from_strings(r, [0], [[f] for f in forms]) if forms else residue_field(r)
    return resolve(m, window)


def _reference_periodicity(res):
    """The onset loop: least period, then least onset, whose tail carries a
    solution that is a degreewise isomorphism on every tail term."""
    from syzkit.chainsolve import candidate_solutions, consistent_twist, solve_chain_self_maps
    from syzkit.complexes import resolution_complex

    cx = resolution_complex(res)
    w = res.window
    for q in range(1, w // 2 + 1):
        for onset in range(w - 2 * q + 1):
            tau = consistent_twist(cx, q, onset + q)
            if tau is None:
                continue
            layout, basis = solve_chain_self_maps(cx, q, tau, onset + q)
            for x in candidate_solutions(basis, res.ring.char):
                phi = layout.chain_map(x)
                if all(phi.component(j).degreewise_isomorphism() for j in range(onset + q, w + 1)):
                    return q, onset, tau
    return None


def test_certificate_matches_the_reference_onset_loop():
    found = []
    for case in PERIODIC_CASES:
        res = _periodic_case_resolution(case)
        cert = detect_resolution_periodicity(res)
        got = None if cert is None else (cert.period, cert.onset, cert.twist)
        assert got == _reference_periodicity(res), case
        found.append(got)
    assert found[:6] == [(1, 1, -1), (2, 0, -2), (1, 0, -1), (2, 0, -2), (1, 2, -1), (2, 1, -2)]
    assert found[6] is None


def test_certificate_witness_passes_the_tail_check_and_an_altered_one_fails():
    from syzkit.complexes import ChainMap

    res = _periodic_case_resolution(PERIODIC_CASES[0])  # k over k[x,y]/(xy), p = 3
    cert = detect_resolution_periodicity(res)
    assert res.betti() == [1] + [2] * 8
    lo = cert.onset + cert.period
    w = cert.witness
    assert (w.shift, w.twist, cert.window) == (cert.period, cert.twist, res.window)
    assert w.iso_range_ok(lo) and w.verify(lo)
    # the tail starts at onset 1: the zero component below it breaks the
    # chain condition at the tail's first term, which the tail check skips
    assert not w.verify()
    comps = list(w.components)
    comps[lo + 1] = comps[lo + 1].scale(2)
    altered = ChainMap(w.source, w.target, w.shift, w.twist, comps)
    assert altered.iso_range_ok(lo)
    assert not altered.verify(lo)


def test_certificate_records_shift_one_rigorously_infeasible(monkeypatch):
    import syzkit.chainsolve as chainsolve

    tails = []
    real = chainsolve.find_tail_isomorphism

    def counted(cx, q, onset, *args, **kwargs):
        tails.append((q, onset))
        return real(cx, q, onset, *args, **kwargs)

    monkeypatch.setattr(chainsolve, "find_tail_isomorphism", counted)
    res = _periodic_case_resolution(PERIODIC_CASES[1])  # R/(x) over k[x,y]/(xy)
    cert = detect_resolution_periodicity(res)
    assert (cert.period, cert.onset) == (2, 0)
    # x and y alternate in the differentials, so a shift-1 map c_{j-1} x = -c_j y
    # forces every scalar c_j to zero
    assert cert.below == {1: ("only-zero-map", True)}
    # that rules out every onset of shift 1 at its shortest tail; shift 2
    # passes there and is then found at onset 0
    assert tails == [(1, 6), (2, 4), (2, 0)]
