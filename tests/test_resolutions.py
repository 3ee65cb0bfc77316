import math

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
