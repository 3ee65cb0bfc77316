import math

import numpy as np
import pytest

from syzkit.errors import DegreeBoundError, SyzkitError, WindowError
from syzkit.freemod import FreeMap
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
from test_depth import proj_dim
from test_freemod import column, columns, equals, scale
from test_modules import socle_dim


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
    assert proj_dim(res) == 0


def test_residue_field_complete_intersection_linear_growth():
    r = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"], degree_bound=12)
    res = resolve(residue_field(r), 9)
    assert res.betti() == [i + 1 for i in range(10)]
    assert res.is_minimal()


# complete intersections of c <= 2 quadrics in n <= 3 variables
TATE_CASES = [
    (["x"], ["x^2"]),
    (["x", "y"], ["x*y"]),
    (["x", "y"], ["x^2", "y^2"]),
    (["x", "y", "z"], ["x^2 + y*z"]),
    (["x", "y", "z"], ["x^2 + y*z", "y^2"]),
    (["x", "y", "z"], ["x*y", "z^2"]),
]


@pytest.mark.parametrize("p", [2, 32003])
@pytest.mark.parametrize("variables, quadrics", TATE_CASES)
def test_residue_field_betti_numbers_follow_tate(p, variables, quadrics):
    # Tate: over a complete intersection of c quadrics in n variables the
    # Poincare series of k is (1 + t)^n / (1 - t^2)^c
    n, c, window = len(variables), len(quadrics), 6
    want = [
        sum(math.comb(n, i - 2 * k) * math.comb(k + c - 1, c - 1) for k in range(i // 2 + 1))
        for i in range(window + 1)
    ]
    r = ring_from_strings(p, variables, quadrics, degree_bound=window + 2)
    assert resolve(residue_field(r), window).betti() == want


def test_verify_complex_rejects_a_broken_cover():
    # M = R/(x) (+) R/(y): the first relation column x*e_1 dies under the
    # cover, but not once the cover's column 0 is replaced by e_1 + e_2
    r = ring_from_strings(5, ["x", "y"], [], degree_bound=8)
    m = module_from_strings(r, [0, 0], [["x", "0"], ["0", "y"]])
    res = resolve(m, 3)
    assert res.verify_complex()
    assert [list(c) for c in columns(res.cover)] == [[1, 0], [0, 1]]
    res.cover = FreeMap.from_dense(r, (0, 0), m.gen_degrees, [np.array([1, 1]), np.array([0, 1])])
    assert not res.verify_complex()


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_step_one_reads_the_cover_as_the_generator_matrix(p, monkeypatch):
    # step 1's matrices are M's projection of the cover's: the matrices of
    # the free cover on M's minimal generators, entry for entry, in every
    # degree of the window; also where a presented generator is not minimal
    import syzkit.resolutions as resolutions
    from syzkit.modules import generator_matrix

    r = ring_from_strings(p, ["x", "y", "z"], ["x^2 - y*z"], degree_bound=8)
    two = module_from_strings(r, [0, 1], [["x", "0"], ["y^2", "z"], ["0", "x*y"]])
    modules = [two, two.shifted(3), two.shifted(-2),
               module_from_strings(r, [0, 1], [["x", "-1"], ["y*z", "0"]])]
    for m in modules:
        seen = []

        def recorded(ring, src_degs, matrix_at, *args, _real=resolutions.kernel_generators):
            seen.append((src_degs, matrix_at))
            return _real(ring, src_degs, matrix_at, *args)

        monkeypatch.setattr(resolutions, "kernel_generators", recorded)
        res = resolve(m, 2)
        monkeypatch.undo()
        mingens = m.minimal_generators()
        src, step_one = seen[0]
        assert src == res.gens[0] == tuple(g for g, _ in mingens)
        assert res.cover.target_degrees == m.gen_degrees
        window = r.degree_window(m.min_degree(), max(src))
        for d in range(min(src) - 1, window.top + 1):
            want = generator_matrix(m, mingens, d)
            got = step_one(d)
            assert got.shape == want.shape and np.array_equal(got, want), (p, d)
    assert len(modules[-1].minimal_generators()) == 1


def test_verify_complex_reads_the_cover_in_every_degree_of_d1():
    # M = R/(x, y^2) over F_5[x, y, z], resolved to step 1, so that no d o d
    # is checked: d_1's columns lie in degrees 1 and 2, and adding z^2 to
    # the second leaves the degree-1 composite zero and makes the degree-2
    # one z^2, which is nonzero in M
    r = ring_from_strings(5, ["x", "y", "z"], [], degree_bound=6)
    res = resolve(module_from_strings(r, [0], [["x"], ["y^2"]]), 1)
    d1 = res.diffs[1]
    assert d1.source_degrees == (1, 2) and res.verify_complex()
    z2 = FreeMap.from_poly_matrix(r, (0,), (1, 2), [[{}, r.base.parse("z^2")]])
    cols = [(a + b) % r.char for a, b in zip(columns(d1), columns(z2))]
    res.diffs[1] = FreeMap.from_dense(r, d1.source_degrees, d1.target_degrees, cols)
    assert not res.verify_complex()


def test_verify_complex_rejects_a_broken_second_differential():
    # Koszul resolution of k over F_5[x, y]; adding x*e_1 to the d_2 column
    # gives d_1 d_2 = x^2 != 0
    r = ring_from_strings(5, ["x", "y"], [], degree_bound=8)
    res = resolve(residue_field(r), 3)
    assert res.betti() == [1, 2, 1, 0]
    assert res.verify_complex()
    # columns are read-only, so the broken differential is a new map
    d2 = res.diffs[2]
    col = column(d2, 0)
    col[0] = (col[0] + 1) % r.char
    res.diffs[2] = FreeMap.from_dense(r, d2.source_degrees, d2.target_degrees, [col], d2.twist)
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


def test_degree_bound_error_names_the_bound_that_would_certify():
    # the generator of F_5 sits 5 ring degrees above the module's lowest
    # generator, within the margin of D = 6: bound 7 would certify it,
    # whatever the shift, and no internal degree is named
    r = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=6)
    m = module_from_strings(r, [0], [["x"]])
    for s in (-1, 0, 2):
        with pytest.raises(DegreeBoundError) as info:
            resolve(m.shifted(s), 8)
        assert (info.value.needed, info.value.bound) == (7, 6)
        assert str(info.value).startswith("needs degree bound 7, have 6 (")


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
        assert equals(a, b) or (not a.source_degrees and not b.source_degrees)


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


def test_estimate_complexity_refuses_a_sequence_shorter_than_its_window():
    with pytest.raises(WindowError, match="over window 7 needs 8 Betti numbers, got 4"):
        estimate_complexity([1, 2, 3, 4], window=7)
    with pytest.raises(WindowError, match="over window 6 needs 7 Betti numbers, got 6"):
        estimate_complexity([1, 2, 3, 4, 5, 6], window=6)
    assert estimate_complexity([1, 2, 3, 4, 5, 6, 7], window=6).value == 2


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
    assert any(socle_dim(n, d) > 0 for d in range(6))
    assert depth(n).depth == 0
    m = module_from_strings(rxy, [0], [["x"]])  # depth 1, no socle
    assert all(socle_dim(m, d) == 0 for d in range(6))
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
    assert proj_dim(res) == 3
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


HILBERT_CASES = [  # (p, variables, dense quadrics, degree bound, window, seed)
    (3, 3, 1, 10, 8, 1),
    (3, 4, 2, 9, 6, 2),
    (32003, 4, 1, 9, 6, 3),
    (32003, 3, 2, 10, 8, 4),
    (P31, 3, 2, 10, 8, 5),
    (P31, 4, 2, 9, 6, 6),
]


@pytest.mark.parametrize("p, nvars, quadrics, bound, window, seed", HILBERT_CASES)
def test_graded_betti_numbers_recover_the_hilbert_function(p, nvars, quadrics, bound,
                                                           window, seed):
    # independent oracle on infinite resolutions: in every degree d that the
    # window and the bound certify, sum_i (-1)^i sum_{g in gens(F_i)}
    # dim R_{d-g} = dim M_d.  The rank check decides which kernel vectors
    # become generators, so a wrong rank breaks this identity.
    import random

    from syzkit.freemod import component_dim

    names = ["x", "y", "z", "w"][:nvars]
    rng = random.Random(seed)
    ring = ring_from_strings(p, names, _dense_quadrics(p, names, quadrics, seed),
                             degree_bound=bound)
    # more linear forms than dim R (and maybe a quadric): M has finite
    # length and, as R is not regular, an infinite resolution
    forms = [" + ".join(f"{rng.randrange(1, p)}*{v}" for v in names)
             for _ in range(rng.randint(nvars - quadrics + 1, nvars))]
    forms += _dense_quadrics(p, names, rng.randint(0, 1), seed + 1)
    m = module_from_strings(ring, [0], [[f] for f in forms])
    res = resolve(m, window)
    assert res.terminated_at is None
    for d in range(min(res.low + res.window, bound) + 1):
        graded = sum((-1) ** i * component_dim(ring, res.gens[i], d)
                     for i in range(len(res.gens)))
        assert graded == m.dim(d), (p, nvars, quadrics, d)


def generators(fmap):
    """The (degree, vector) of each kernel generator that `kernel_generators`
    found, read off the columns of the map it returns (None: none)."""
    if fmap is None:
        return []
    return [(g, column(fmap, b)) for b, g in enumerate(fmap.source_degrees)]


def _dense_kernel_generators(ring, src_degs, matrix_at, hi):
    """The syzygy step on the whole source component: minimal generators
    are the columns of ker_d extending the span of R_1 * ker_{d-1}, picked
    by rref([span | ker_d])."""
    from syzkit.freemod import component_dim, free_mult_matrix
    from syzkit.linalg import extend_basis, kernel_basis, matmul, zeros

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
        span = np.concatenate([zeros(src_dim, 0)] + blocks, axis=1)
        gens += [(d, kd[:, i]) for i in extend_basis(span, kd, p)]
        prev = kd
    return gens


@pytest.mark.parametrize("case", ["ci", "golod", "cyclic", "mixed"])
def test_kernel_generators_match_the_dense_step(case):
    from functools import partial

    from syzkit.modules import generator_matrix
    from syzkit.resolutions import kernel_generators

    if case == "ci":
        r = ring_from_strings(32003, ["x", "y", "z"], ["x^2", "y^2", "z^2"], degree_bound=10)
        m, steps = residue_field(r), 5
    elif case == "golod":
        r = ring_from_strings(2, ["x", "y"], ["x^2", "x*y", "y^2"], degree_bound=10)
        m, steps = residue_field(r), 7
    elif case == "cyclic":
        names = ["x", "y", "z"]
        r = ring_from_strings(P31, names, _dense_quadrics(P31, names, 1, 3), degree_bound=9)
        m, steps = module_from_strings(r, [0], [["x"]]), 4
    else:  # relations of two degrees: steps find generators above their least degree
        r = ring_from_strings(3, ["x", "y", "z"], ["x^2", "y^3", "x*z^2 + y^2*z"], degree_bound=12)
        m, steps = residue_field(r), 6
    res = resolve(m, steps)
    rows = None  # free rows of the previous step's kernel bases
    for i in range(1, steps + 1):
        if not res.gens[i - 1]:
            break
        if i == 1:
            matrix_at = partial(generator_matrix, m, m.minimal_generators())
        else:
            matrix_at = res.diffs[i - 1].induced
        got, hi, free_rows = kernel_generators(r, res.gens[i - 1], matrix_at, m.min_degree())
        want = _dense_kernel_generators(r, res.gens[i - 1], matrix_at, hi)
        runs = [generators(got)]
        if rows is not None:
            runs.append(generators(
                kernel_generators(r, res.gens[i - 1], matrix_at, m.min_degree(), rows)[0]))
        for run in runs:
            assert [d for d, _ in run] == [d for d, _ in want]
            assert all(np.array_equal(u, v) for (_, u), (_, v) in zip(run, want))
            assert len(run) == res.betti()[i]
        rows = free_rows


def _dense_forms(p, names, degree, count, seed):
    import random
    from itertools import combinations_with_replacement

    rng = random.Random(seed)
    mons = ["*".join(m) for m in combinations_with_replacement(names, degree)]
    forms = [[(rng.randrange(p), m) for m in mons] for _ in range(count)]
    return [" + ".join(f"{c}*{m}" for c, m in form if c) for form in forms]


def _handover_ring(p, kind, seed):
    """A seeded ring over F_p[x, y, z] of the given kind."""
    import random

    names = ["x", "y", "z"]
    if kind == "hypersurface":
        rels = _dense_forms(p, names, 2, 1, seed)
    elif kind == "two quadrics":
        rels = _dense_forms(p, names, 2, 2, seed)
    elif kind == "golod":  # l * (x, y, z): a product of ideals is Golod
        rng = random.Random(seed)
        coeffs = [rng.randrange(1, p) for _ in names]
        rels = [" + ".join(f"{c}*{u}*{v}" for c, u in zip(coeffs, names)) for v in names]
    else:  # relations of two degrees
        rels = _dense_forms(p, names, 2, 1, seed) + _dense_forms(p, names, 3, 1, seed + 1)
    return ring_from_strings(p, names, rels, degree_bound=9)


def _steps(r, m, steps):
    """(src degrees, matrix_at, generators, handover) of each syzygy step
    of m, run one at a time, each on the previous step's handover."""
    from functools import partial

    from syzkit.modules import generator_matrix
    from syzkit.resolutions import kernel_generators

    src = tuple(d for d, _ in m.minimal_generators())
    matrix_at = partial(generator_matrix, m, m.minimal_generators())
    out, rows = [], None
    for _ in range(steps):
        nxt, _, rows = kernel_generators(r, src, matrix_at, m.min_degree(), rows)
        out.append((src, matrix_at, generators(nxt), rows))
        if nxt is None:
            break
        src, matrix_at = nxt.source_degrees, nxt.induced
    return out


@pytest.mark.parametrize("p", [2, 3, 32003, P31])
@pytest.mark.parametrize("kind", ["hypersurface", "two quadrics", "golod", "two degrees"])
def test_handover_is_the_null_space_of_the_next_matrix(p, kind):
    # the oracle is the next map's own degree-d matrix on the handed rows,
    # eliminated from scratch, at every step and handed degree: the handed
    # free columns are its free columns, and the vectors that the one
    # formula builds from the handed block's RREF for every free column,
    # not only those of chosen generators, are its RREF null space
    from syzkit.linalg import _null_space, rref, rref_null_space, unpack

    r = _handover_ring(p, kind, sum(map(ord, kind)) + p % 97)
    m = residue_field(r)
    res = resolve(m, 5)
    steps = _steps(r, m, 5)
    blocks = 0
    for i, (src, _, gens, handover) in enumerate(steps):
        assert [v.tolist() for _, v in gens] == [v.tolist() for v in columns(res.diffs[i + 1])]
        nxt = FreeMap.from_dense(r, [d for d, _ in gens], src, [v for _, v in gens])
        for d, h in handover.items():
            mat = nxt.induced(d)[h.rows]
            h.check(mat, d)
            want, want_free = _null_space(mat, p)
            assert h.free == want_free, (i, d)
            echelon, pivots, _ = rref(unpack(h.block), p)
            vectors = rref_null_space(echelon, pivots, h.free, mat.shape[1], p)
            assert np.array_equal(vectors, want), (i, d)
            blocks += bool(h.block[1].size)
    assert blocks >= 20


@pytest.mark.parametrize("p", [2, 3, 32003, P31])
@pytest.mark.parametrize("kind", ["hypersurface", "two quadrics", "golod", "two degrees"])
def test_handed_blocks_are_reduced_only_where_the_next_step_picks(p, kind, monkeypatch):
    # every RREF a step takes, in order: from scratch where nothing was
    # handed down, and a handed block's exactly in the degrees where the
    # next step picks generators, so never for the last step's
    from syzkit import resolutions
    from syzkit.linalg import unpack

    calls = []
    rref = resolutions.rref

    def counted(mat, prime):
        calls.append(mat.copy())
        return rref(mat, prime)

    r = _handover_ring(p, kind, sum(map(ord, kind)) + p % 97)
    m = residue_field(r)
    monkeypatch.setattr(resolutions, "rref", counted)
    steps = _steps(r, m, 5)
    monkeypatch.undo()
    want, handed, reduced, skipped = [], {}, 0, 0
    for src, matrix_at, gens, handover in steps:
        picked = {d for d, _ in gens}
        for d in handover:
            if d not in handed:
                want.append(matrix_at(d))
            elif d in picked:
                want.append(unpack(handed[d].block))
                reduced += 1
            else:
                skipped += 1
        handed = handover
    assert len(calls) == len(want)
    assert all(np.array_equal(u, v) for u, v in zip(calls, want))
    assert reduced and skipped and handed  # the last step's handover is never reduced


@pytest.mark.parametrize("where", ["nonzero", "zero"])
def test_kernel_generators_refuse_a_changed_block(where):
    # one entry of a handed block A changed: the next matrix is not [A | E]
    import dataclasses

    from syzkit.resolutions import kernel_generators

    p = 32003
    r = ring_from_strings(p, ["x", "y", "z"], ["x^2", "y^2", "z^2"], degree_bound=10)
    res = resolve(residue_field(r), 3)
    _, _, rows = kernel_generators(r, res.gens[2], res.diffs[2].induced, 0)
    d = min(d for d, h in rows.items() if h.block[1].size)  # a block with a nonzero entry
    shape, at, values = rows[d].block
    if where == "nonzero":
        values = values.copy()
        values[0] = (values[0] + 1) % p
    else:
        spot = min(set(range(shape[0] * shape[1])) - set(at.tolist()))
        at, values = np.append(at, spot), np.append(values, 1)
    rows[d] = dataclasses.replace(rows[d], block=(shape, at, values))
    with pytest.raises(SyzkitError, match=f"differs from the handed block in degree {d}$"):
        kernel_generators(r, res.gens[3], res.diffs[3].induced, 0, rows)


@pytest.mark.parametrize("p", [3, 32003, P31])
@pytest.mark.parametrize("where", ["A changed", "A missing", "E extra", "E moved"])
def test_handover_check_refuses_a_planted_mismatch(p, where):
    # the check compares the packed entries of A and E's unit entries with
    # the next matrix on the handed rows; one planted change in that matrix
    # (a value of A, an entry of A set to 0, a nonzero added in a column of
    # E, E's 1 moved to another row) is refused with the check's message
    from syzkit.resolutions import kernel_generators

    r = _handover_ring(p, "hypersurface", 7 + p % 97)
    res = resolve(residue_field(r), 4)
    _, _, rows = kernel_generators(r, res.gens[2], res.diffs[2].induced, 0)
    # a degree where A has an entry, or where the step picked generators
    d = min(d for d, h in rows.items() if (h.block[1].size if where[0] == "A" else h.new))
    handed = rows[d]
    mat = res.diffs[3].induced(d, rows=handed.rows)
    handed.check(mat, d)  # the unchanged matrix passes
    (height, width), at, values = handed.block
    if where[0] == "A":
        i, j = divmod(int(at[0]), width)
        mat[i, j] = 0 if where == "A missing" else values[0] % (p - 1) + 1
    else:  # E's first column, whose 1 sits on row new[0]
        one = handed.new[0]
        if where == "E moved":
            mat[one, width] = 0
        mat[min(set(range(height)) - {one}), width] = 1
    with pytest.raises(SyzkitError, match=f"differs from the handed block in degree {d}$"):
        handed.check(mat, d)


def test_a_step_builds_its_matrices_on_the_handed_rows_only(monkeypatch):
    # k over F_32003[x,y,z,w]/(xy - zw) at window 6, with FreeMap.induced
    # wrapped inside each syzygy step: wherever step i handed over rows in
    # degree d, step i's A and step i+1's matrix are built on exactly those
    # rows, and a whole component only in degrees step i did not scan
    from syzkit import resolutions

    r = ring_from_strings(32003, ["x", "y", "z", "w"], ["x*y - z*w"], degree_bound=10)
    calls, handovers = [], []
    induced, kernel_generators = FreeMap.induced, resolutions.kernel_generators

    def wrapped(self, d, over=None, rows=None):
        mat = induced(self, d, over, rows)
        calls[-1].append((self, d, None if rows is None else list(rows), mat.shape[0]))
        return mat

    def step(*args, **kwargs):
        calls.append([])
        out = kernel_generators(*args, **kwargs)
        handovers.append(out[2])
        return out

    calls.append([])  # calls before the first step
    monkeypatch.setattr(FreeMap, "induced", wrapped)
    monkeypatch.setattr(resolutions, "kernel_generators", step)
    m = residue_field(r)
    res = resolve(m, 6)
    monkeypatch.undo()
    assert res.betti() == [1, 4, 7, 8, 8, 8, 8]
    step_of = {res.gens[i - 1]: i for i in range(1, 7)}  # maps of step i go into F_{i-1}
    assert len(step_of) == 6 and len(handovers) == 6
    seen = {"A": 0, "next": 0}
    for c, made in enumerate(calls[1:], 1):
        for fmap, d, rows, height in made:
            if fmap is res.cover or fmap is m.relations:  # step 1 reads M through them
                assert c == 1 and rows is None
                continue
            i = step_of[fmap.target_degrees]
            assert i in (c, c - 1)
            handed = handovers[i - 1].get(d)
            if handed is None:  # a degree step i did not scan
                assert i == c - 1 and rows is None
            else:
                assert rows == list(handed.rows) and height == len(handed.rows)
                seen["A" if i == c else "next"] += 1
    assert min(seen.values()) > 0, seen


def _resolve_counting_blocks(m, steps, monkeypatch):
    """resolve(m, steps), with the content of every block A that a syzygy
    step packs and of every block it eliminates to its pivots, in order."""
    from syzkit import resolutions

    packed, eliminated = [], []
    pack, pivot_columns = resolutions.pack, resolutions._pivot_columns

    def packs(a):
        packed.append((a.shape, a.tobytes()))
        return pack(a)

    def eliminates(a, p):
        eliminated.append((a.shape, a.tobytes()))
        return pivot_columns(a, p)

    monkeypatch.setattr(resolutions, "pack", packs)
    monkeypatch.setattr(resolutions, "_pivot_columns", eliminates)
    res = resolve(m, steps)
    monkeypatch.undo()
    return res, packed, eliminated


def _assert_dense_steps(m, res):
    """Every step's generators are the dense step's, on the same maps."""
    from functools import partial

    from syzkit.modules import generator_matrix

    r = m.ring
    for i in range(1, len(res.gens)):
        src = res.gens[i - 1]
        matrix_at = (partial(generator_matrix, m, m.minimal_generators()) if i == 1
                     else res.diffs[i - 1].induced)
        hi = r.degree_window(m.min_degree(), max(src)).top
        want = _dense_kernel_generators(r, src, matrix_at, hi)
        assert [d for d, _ in want] == list(res.gens[i]), i
        assert all(np.array_equal(u, v) for (_, u), v in zip(want, columns(res.diffs[i]))), i


def test_kernel_generators_reuse_a_null_space_that_repeats(monkeypatch):
    # k over a 1-dimensional complete intersection: the degree tables of R
    # repeat, so the steps meet blocks already eliminated; each distinct
    # block of the resolution has its pivots found once, and the generators
    # stay the dense step's
    names = ["x", "y", "z"]
    r = ring_from_strings(7, names, _dense_quadrics(7, names, 2, 2), degree_bound=14)
    m = residue_field(r)
    res, packed, eliminated = _resolve_counting_blocks(m, 6, monkeypatch)
    assert len(eliminated) == len(set(eliminated)) == len(set(packed)) < len(packed)
    assert res.betti() == [1, 3, 5, 7, 9, 11, 13]
    _assert_dense_steps(m, res)


def test_kernel_generators_reuse_the_blocks_of_earlier_steps(monkeypatch):
    # k over a quadric hypersurface: the resolution turns periodic of period
    # 2, and steps 5 and 6 meet the blocks of steps 3 and 4 again, which
    # only a record kept over the whole resolution can reuse
    r = ring_from_strings(32003, ["x", "y", "z", "w"], ["x*y - z*w"], degree_bound=10)
    m = residue_field(r)
    res, packed, eliminated = _resolve_counting_blocks(m, 6, monkeypatch)
    assert res.betti() == [1, 4, 7, 8, 8, 8, 8]
    assert len(packed) == 45 and len(set(packed)) == 33
    assert len(eliminated) == len(set(eliminated)) == 33
    _assert_dense_steps(m, res)


def test_a_step_picks_generators_over_a_nonzero_block_from_its_one_elimination(monkeypatch):
    # relations of two degrees: steps find new generators in degrees where A
    # is not zero, and they are the rows that A's one elimination leaves;
    # each distinct block is eliminated once, no syzygy step extends A by
    # the identity (extend_basis, wrapped in every syzkit module that binds
    # it), and the generators are the dense step's
    import sys

    from syzkit import linalg

    r = _handover_ring(32003, "two degrees", 5)
    m = residue_field(r)
    callers, extend_basis = [], linalg.extend_basis

    def counted(*args):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return extend_basis(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("syzkit") and getattr(mod, "extend_basis", None) is extend_basis:
            monkeypatch.setattr(mod, "extend_basis", counted)
    res, packed, eliminated = _resolve_counting_blocks(m, 5, monkeypatch)
    assert "syzkit.resolutions" not in callers
    assert len(eliminated) == len(set(eliminated)) == len(set(packed)) < len(packed)
    picked_over_a = 0
    for shape, content in set(eliminated):
        a = np.frombuffer(content, dtype=np.int64).reshape(shape)
        picked_over_a += bool(a.any() and linalg._pivot_columns(a, r.char)[1])
    assert picked_over_a
    _assert_dense_steps(m, res)


def test_kernel_generators_tell_apart_blocks_with_one_nonzero_pattern(monkeypatch):
    # R/(x, y) over a seeded ring at p = 7 meets blocks A with the same shape
    # and nonzero positions but other values and other pivots: the record
    # of eliminated blocks must compare values too, or a step reads another
    # block's free columns
    from syzkit.linalg import free_columns

    r = ring_from_strings(7, ["x", "y", "z"], ["2*x*y + 6*z^2 + 6*y*z + x^2",
                                             "4*x*y + 6*x*z + 6*x^2 + z^2"], degree_bound=8)
    m = module_from_strings(r, [0], [["x"], ["y"]])
    res, packed, eliminated = _resolve_counting_blocks(m, 5, monkeypatch)
    assert res.betti() == [1, 2, 2, 2, 2, 2]
    assert len(eliminated) == len(set(eliminated)) == len(set(packed))
    pivots_by_pattern = {}
    for shape, content in set(packed):
        a = np.frombuffer(content, dtype=np.int64).reshape(shape)
        pattern = (shape, np.flatnonzero(a).tobytes())
        pivots_by_pattern.setdefault(pattern, set()).add(tuple(free_columns(a, 7)))
    assert max(map(len, pivots_by_pattern.values())) > 1
    _assert_dense_steps(m, res)


def test_kernel_generators_check_that_the_previous_rows_are_filled():
    # one extra row outside the previous kernel's free rows: the image of
    # d_3 fills only the free rows, so the next matrix is not [A | E]
    import dataclasses

    from syzkit.freemod import component_dim
    from syzkit.resolutions import kernel_generators

    r = ring_from_strings(32003, ["x", "y", "z"], ["x^2", "y^2", "z^2"], degree_bound=10)
    res = resolve(residue_field(r), 3)
    nxt, _, rows = kernel_generators(r, res.gens[2], res.diffs[2].induced, 0)
    assert len(nxt.source_degrees) == res.betti()[3] == 10
    # F_3 sits in degree 3, so degree 4 is the first that step 4 scans
    d = 4
    extra = min(set(range(component_dim(r, res.gens[2], d))) - set(rows[d].rows))
    rows[d] = dataclasses.replace(rows[d], rows=sorted(rows[d].rows + [extra]))
    with pytest.raises(SyzkitError, match=f"differs from the handed block in degree {d}$"):
        kernel_generators(r, res.gens[3], res.diffs[3].induced, 0, rows)


def test_kernel_generators_refuse_a_matrix_of_the_wrong_width():
    # a differential paired with the degrees of another free module
    from syzkit.resolutions import kernel_generators

    r = ring_from_strings(32003, ["x", "y", "z"], ["x^2", "y^2", "z^2"], degree_bound=10)
    res = resolve(residue_field(r), 3)
    with pytest.raises(SyzkitError, match="internal error: 6 columns in degree 2, not 9$"):
        kernel_generators(r, res.gens[1], res.diffs[2].induced, 0)


def test_complexity_refuses_a_small_window_before_resolving(monkeypatch):
    from syzkit import resolutions

    def fail(*_):
        raise AssertionError("resolve ran before the window was refused")

    r = ring_from_strings(3, ["x", "y"], ["x^2", "y^2"], degree_bound=10)
    monkeypatch.setattr(resolutions, "resolve", fail)
    with pytest.raises(WindowError, match="needs a window of at least 6$"):
        complexity_of_module(residue_field(r), 5)
    with pytest.raises(WindowError, match="needs a window of at least 6$"):
        estimate_complexity([1, 2, 3, 4, 5, 6])


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
    fmap = FreeMap.from_dense(r, src, tgt, cols)
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
    # inner map's columns and returns the images degree by degree; the
    # reference applies the outer map to each column on its own, in Python
    # integers
    from syzkit.freemod import FreeMap, component_dim

    names = ["x", "y", "z"]
    r = ring_from_strings(p, names, _dense_quadrics(p, names, 1, 7), degree_bound=7)
    rng = np.random.default_rng(p % 1000)

    def random_map(src, tgt, twist, zero_columns=()):
        cols = [rng.integers(0, p, size=component_dim(r, tgt, g + twist)) for g in src]
        for b in zero_columns:
            cols[b][:] = 0
        return FreeMap.from_dense(r, src, tgt, cols, twist)

    # several source generators of degree 1; a generator at -3 whose column
    # is empty; a target generator at 9, above the degree bound, whose
    # blocks are empty in every degree; a zero column
    inner = random_map((1, 1, 1, 2, -3, 1, 4), (0, 0, 1, 5), 1, zero_columns=(5,))
    outer = random_map((0, 0, 1, 5), (0, 0, 2, 9), 2)
    groups = outer.compose(inner)
    assert [bs for bs, _ in groups] == [(0, 1, 2, 5), (3,), (4,), (6,)]
    images = {b: mat[:, k] for bs, mat in groups for k, b in enumerate(bs)}
    assert column(inner, 4).shape == (0,)
    assert images[4].tolist() == [0, 0]
    for b, g in enumerate(inner.source_degrees):
        mat = outer.induced(g + inner.twist).tolist()
        col = [int(v) for v in column(inner, b)]
        want = [sum(x * y for x, y in zip(row, col)) % p for row in mat]
        assert images[b].tolist() == want


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

    w = res.window
    for q in range(1, w // 2 + 1):
        for onset in range(w - 2 * q + 1):
            tau = consistent_twist(res, q, onset + q)
            if tau is None:
                continue
            layout, basis = solve_chain_self_maps(res, q, tau, onset + q)
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
    comps[lo + 1] = scale(comps[lo + 1], 2)
    altered = ChainMap(w.source, w.target, w.shift, w.twist, comps)
    assert altered.iso_range_ok(lo)
    assert not altered.verify(lo)


@pytest.mark.parametrize("p", [2, 3, 32003, P31])
def test_chain_condition_is_compared_group_by_group(p):
    # F_j = R(-j) (+) R(-j-1) over F_p[x]/(x^2), with d = x on each summand
    # and eta = (-1)^j, shift 1: d_j's columns lie in two degrees, whose
    # images under eta_{j-1} have 2 and 1 rows.  Flipping the sign of eta_4
    # (zeroing it at p = 2) on the summand of one degree breaks the chain
    # condition in that degree's group only
    from syzkit.complexes import ChainMap, FreeComplex

    w = 6
    r = ring_from_strings(p, ["x"], ["x^2"], degree_bound=w + 3)
    x = r.base.parse("x")
    gens = [(j, j + 1) for j in range(w + 1)]
    cx = FreeComplex(r, gens, [None] + [
        FreeMap.from_poly_matrix(r, gens[j - 1], gens[j], [[x, {}], [{}, x]])
        for j in range(1, w + 1)])
    assert cx.verify()
    eta = [FreeMap.zero(r, gens[0], (), -1)] + [
        scale(FreeMap.selection(r, gens[j], gens[j - 1], [0, 1], -1), (-1) ** j)
        for j in range(1, w + 1)]
    groups = eta[3].compose(cx.diff(4))
    assert [(bs, mat.shape[0]) for bs, mat in groups] == [((0,), 2), ((1,), 1)]
    assert ChainMap(cx, cx, 1, -1, eta).verify()
    for summand in (0, 1):
        col = column(eta[4], summand)
        cols = columns(eta[4])
        cols[summand] = (-col if p > 2 else 0 * col) % p
        altered = list(eta)
        altered[4] = FreeMap.from_dense(r, gens[4], gens[3], cols, -1)
        phi = ChainMap(cx, cx, 1, -1, altered)
        assert not phi.verify() and not phi.verify(3) and phi.verify(5)
        lhs = dict(altered[3].compose(cx.diff(4)))
        rhs = dict(cx.diff(3).compose(altered[4]))
        assert [np.array_equal(lhs[bs], -rhs[bs] % p) for bs in lhs] == [summand == 1, summand == 0]


def test_certificate_search_builds_each_degree_matrix_once(monkeypatch):
    # the (period, onset) tails of one search share the differentials'
    # degree matrices: the chain systems build d_i in degree e once per
    # search, and the next search builds them afresh
    import syzkit.chainsolve as chainsolve

    built, inside = [], []
    solve, induced = chainsolve.solve_chain_self_maps, FreeMap.induced

    def solving(*args):
        inside.append(True)
        try:
            return solve(*args)
        finally:
            inside.pop()

    def counted(self, d):
        if inside:
            built.append((id(self), d))
        return induced(self, d)

    res = _periodic_case_resolution(PERIODIC_CASES[5])
    monkeypatch.setattr(chainsolve, "solve_chain_self_maps", solving)
    monkeypatch.setattr(FreeMap, "induced", counted)
    cert = detect_resolution_periodicity(res)
    assert (cert.period, cert.onset) == (2, 1)
    once = list(built)
    assert once and len(once) == len(set(once))
    detect_resolution_periodicity(res)
    assert built == once + once


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
