import os

import numpy as np
import pytest

from syzkit.complexes import coker_module
from syzkit.errors import HomogeneityError, SyzkitError
from syzkit.freemod import FreeMap
from syzkit.linalg import rank
from syzkit.modules import (
    GradedModule,
    Homology,
    ModuleMap,
    free_module,
    module_from_presentation,
    module_from_strings,
    residue_field,
    tensor_presentation,
    verify_ses,
)
from syzkit.homological import ext_basis, pushout_extension
from syzkit.io import read_module_file
from syzkit.polynomials import poly_degree
from syzkit.resolutions import resolve
from syzkit.rings import ring_from_strings
from test_depth import lift_presentation
from test_freemod import SOURCE, TARGET, from_columns, sample_map


def dims(m, dmax):
    """dim M_d for d = 0..dmax."""
    return [m.dim(d) for d in range(dmax + 1)]


def socle_dim(m, d):
    """Dimension of M_d's part killed by every variable."""
    n = m.dim(d)
    if n == 0:
        return 0
    return n - rank(m.action_matrix(1, d).reshape(-1, n), m.ring.char)


def annihilated_by(m, f, d):
    """True when multiplication by the polynomial f kills all of M_d."""
    e = poly_degree(f)
    if e is None:
        return True
    rvec = m.ring.normal_form(f, degree=e)
    return not action_by_ring_vector(m, rvec, e, d).any()


def action_by_ring_vector(m, rvec, e, a):
    """Multiplication by the element rvec of R_e, from M_a to M_{a+e}: the
    monomials' slices of M's action stack, scaled by rvec one at a time
    and summed, each term reduced mod p."""
    p = m.ring.char
    terms = np.asarray(rvec, dtype=np.int64)[:, None, None] * m.action_matrix(e, a) % p
    return terms.sum(axis=0) % p


def ci_ring(p=2):
    return ring_from_strings(p, ["x", "y"], ["x^2", "y^2"])


def xy_ring():
    return ring_from_strings(3, ["x", "y"], ["x*y"])


def test_residue_field_dims():
    k = residue_field(ci_ring())
    assert dims(k, 4) == [1, 0, 0, 0, 0]
    assert not k.is_zero()


def test_free_module_dims_match_ring():
    r = ci_ring()
    f = free_module(r)
    assert dims(f, 4) == r.hilbert_function(4)


def test_quotient_by_x_over_hypersurface():
    r = xy_ring()
    m = module_from_strings(r, [0], [["x"]])
    assert dims(m, 5) == [1, 1, 1, 1, 1, 1]  # basis y^d


def test_inhomogeneous_relation_rejected():
    r = ci_ring()
    with pytest.raises(HomogeneityError):
        module_from_strings(r, [0, 1], [["x", "x"]])


def test_a_vector_of_the_wrong_length_is_refused():
    # R_1 of F_3[x,y]/(xy) has dimension 2: a degree-1 relation, or the
    # image of a degree-1 generator, on one generator in degree 0 has two
    # coordinates
    r = xy_ring()
    three = np.array([1, 0, 0], dtype=np.int64)
    with pytest.raises(SyzkitError, match="length 3, expected 2"):
        GradedModule(r, (0,), FreeMap.from_dense(r, (1,), (0,), [three]))
    with pytest.raises(SyzkitError, match="length 3, expected 2"):
        ModuleMap(free_module(r, (1,)), free_module(r),
                  FreeMap.from_dense(r, (1,), (0,), [three]))
    with pytest.raises(SyzkitError, match="length 3, expected 2"):
        from_columns(r, (1,), (0,), [{0: three}])
    # a 2-D piece of the right size, and a ragged group: the second of two
    # degree-1 columns has the wrong length
    with pytest.raises(SyzkitError, match="column 0 has a block on generator 0 of length 2"):
        from_columns(r, (1,), (0,), [{0: np.array([[1, 0]])}])
    with pytest.raises(SyzkitError, match="column 1 has a block on generator 0 of length 3"):
        from_columns(r, (1, 1), (0,), [{0: np.array([1, 0])}, {0: three}])
    # a record of pieces of the wrong length, and records or columns that name
    # a generator the map does not have
    with pytest.raises(SyzkitError, match="column 0 has a block on generator 0 of length 3, "
                                          "expected 2"):
        FreeMap(r, (1,), (0,), [([0], [0], three[None])])
    for bs, cs, which in [([0], [1], "target generator 1"), ([-1], [0], "source generator -1"),
                          ([0, 2], [0, 0], "source generator 2")]:
        with pytest.raises(SyzkitError, match=f"names {which}, out of range"):
            FreeMap(r, (1, 1), (0,), [(bs, cs, np.ones((len(bs), 2)))])
    with pytest.raises(SyzkitError, match="generator 1, out of range for 1 target"):
        from_columns(r, (1,), (0,), [{1: np.array([1, 0])}])
    with pytest.raises(SyzkitError, match="2 target generators for 1 pieces"):
        FreeMap(r, (1, 1), (0,), [([0, 1], [0, 0], np.ones((1, 2)))])
    with pytest.raises(SyzkitError, match="mixes generators of different degrees"):
        FreeMap(r, (1, 2), (0,), [([0, 1], [0, 0], np.ones((2, 2)))])


def test_a_module_refuses_relations_that_are_not_on_its_generators():
    # the relation map must run into the module's generators, with twist 0
    r = xy_ring()
    x = FreeMap.from_dense(r, (1,), (0,), [np.array([1, 0], dtype=np.int64)])
    assert GradedModule(r, (0,), x).dim(1) == 1
    for gens, rels in [((1,), x), ((0, 0), x), ((), x), ((0,), FreeMap.zero(r, (), ())),
                       ((0,), FreeMap.from_dense(r, (0,), (0,), [np.array([1, 0])], 1))]:
        with pytest.raises(SyzkitError, match="relations must be a map of twist 0 into the "
                                              "module's generators"):
            GradedModule(r, gens, rels)


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def assert_same_module(m, n, degrees):
    """m and n have the same generators, and the same dim and proj in every
    degree of the range."""
    assert m.gen_degrees == n.gen_degrees
    for d in degrees:
        assert m.dim(d) == n.dim(d), d
        assert np.array_equal(m.proj(d), n.proj(d)), d


def test_modules_from_records_match_their_polynomial_presentations():
    # a module whose relation map comes from records (the constructor, a
    # cokernel's differential, a tensor presentation, a pushout) against
    # the same presentation read from the polynomials of its relations
    names = ["ci2_free", "ci2_k", "golod_k", "hyp_ax", "hyp_ax2", "hyp_axy", "s2_free", "x1_k"]
    fixtures = {n: read_module_file(os.path.join(FIXTURES, n + ".module")) for n in names}
    built = {}
    for name, m in fixtures.items():
        rels = FreeMap(m.ring, m.relations.source_degrees, m.gen_degrees, m.relations.records())
        built[name] = (GradedModule(m.ring, m.gen_degrees, rels), m)
    k = fixtures["ci2_k"]
    built["coker"] = (coker_module(resolve(k, 3), 1), None)
    built["tensor"] = (tensor_presentation(fixtures["hyp_ax2"], fixtures["hyp_axy"]), None)
    built["shifted tensor"] = (tensor_presentation(fixtures["hyp_axy"].shifted(2),
                                                   fixtures["hyp_ax"]), None)
    built["pushout"] = (pushout_extension(ext_basis(k, k, 1)[0]).module, None)
    built["pushout t=2"] = (pushout_extension(ext_basis(k, k, 2)[0]).module,
                            None)
    for name, (m, read) in built.items():
        polys = module_from_presentation(m.ring, m.gen_degrees, m.relation_polys())
        degrees = range(m.min_degree() - 1, m.min_degree() + 8)
        assert_same_module(m, polys, degrees)
        if read is not None:
            assert_same_module(m, read, degrees)
        assert any(m.dim(d) for d in degrees), name
        assert name.endswith("free") or m.relations.records(), name


def test_a_module_map_needs_a_free_map_between_its_generators():
    r = xy_ring()
    with pytest.raises(SyzkitError, match="between the modules' generators"):
        ModuleMap(free_module(r, (1,)), free_module(r), FreeMap.zero(r, (0,), (0,)))


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_a_module_map_that_does_not_kill_a_relation_is_refused(p):
    # the generator of M = R/(x, y^2) goes to the generator of N, one degree
    # up: N = R(-1)/(x, y^2) kills both relations, and N = R(-1)/(x) kills
    # x, in degree 1, but not y^2, in degree 2
    r = ring_from_strings(p, ["x", "y"], [], degree_bound=6)
    m = module_from_strings(r, [0], [["x"], ["y^2"]])
    for rels, ok in [([["x"], ["y^2"]], True), ([["x"]], False)]:
        n = module_from_strings(r, [1], rels)
        assert ModuleMap(m, n, FreeMap.selection(r, (0,), (1,), [0], 1)).verify() == ok


def test_minimal_generators_of_socle_heavy_module():
    r = ci_ring()
    k = residue_field(r)
    gens = k.minimal_generators()
    assert [d for d, _ in gens] == [0]
    f = free_module(r, [0, 1])
    assert [d for d, _ in f.minimal_generators()] == [0, 1]


def test_lift_presentation_examples():
    r = xy_ring()
    k = residue_field(r)
    lk = lift_presentation(k)
    assert dims(lk, 3) == dims(k, 3)

    free = free_module(r)
    lifted = lift_presentation(free)  # S/(xy)
    assert dims(lifted, 4) == r.hilbert_function(4)

    m = module_from_strings(r, [0], [["x"]])
    lm = lift_presentation(m)  # S/(x, xy) = S/(x)
    assert dims(lm, 4) == [1, 1, 1, 1, 1]


def test_tensor_presentation_toy():
    r = xy_ring()
    m = module_from_strings(r, [0], [["x"]])
    n = module_from_strings(r, [0], [["x + y"]])
    t = tensor_presentation(m, n)  # A/(x, x+y) = A/(x,y) = k
    assert dims(t, 3) == [1, 0, 0, 0]


def test_tensor_with_free_is_identity_on_dims():
    r = ci_ring()
    m = module_from_strings(r, [0], [["x*y"]])
    t = tensor_presentation(m, free_module(r))
    assert dims(t, 4) == dims(m, 4)


def test_socle_dims():
    r = ci_ring()
    f = free_module(r)
    assert [socle_dim(f, d) for d in range(3)] == [0, 0, 1]  # socle = x*y
    k = residue_field(r)
    assert socle_dim(k, 0) == 1


def test_module_map_and_split_ses():
    r = ci_ring()
    k = residue_field(r)
    f = free_module(r)
    # 0 -> k -> k (+) R -> R -> 0 split
    middle = module_from_strings(r, [0, 0], [["x", "0"], ["y", "0"]])
    import syzkit.freemod as fm
    from syzkit.linalg import zeros

    inc_cols = [zeros(fm.component_dim(r, middle.gen_degrees, 0), 1)[:, 0]]
    inc_cols[0][0] = 1
    inc = ModuleMap(k, middle, fm.FreeMap.from_dense(r, k.gen_degrees, middle.gen_degrees, inc_cols))
    proj_cols = []
    for b, g in enumerate(middle.gen_degrees):
        v = zeros(fm.component_dim(r, f.gen_degrees, g), 1)[:, 0]
        if b == 1:
            v[0] = 1
        proj_cols.append(v)
    proj = ModuleMap(middle, f, fm.FreeMap.from_dense(r, middle.gen_degrees, f.gen_degrees, proj_cols))
    assert inc.verify() and proj.verify()
    ok, why = verify_ses(inc, proj)
    assert ok, why


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
@pytest.mark.parametrize("case", ["composite", "not injective", "not surjective", "dimensions"])
def test_verify_ses_names_the_first_failure(case, p):
    # well-defined maps between R, R/(y), k and k (+) k over F_p[x,y]/(x^2,y^2)
    # that fail one check each, in the first degree where it fails
    r = ci_ring(p)
    k, kk = residue_field(r), module_from_strings(r, [0, 0], [["x", "0"], ["y", "0"],
                                                               ["0", "x"], ["0", "y"]])

    def to(source, target, targets):
        return ModuleMap(source, target, FreeMap.selection(
            r, source.gen_degrees, target.gen_degrees, targets))

    if case == "composite":  # R(-1) -x-> R -> R/(y): x survives in degree 1
        free = free_module(r)
        f = ModuleMap(free_module(r, [1]), free, FreeMap.from_poly_matrix(
            r, (0,), (1,), [[r.base.parse("x")]]))
        g = to(free, module_from_strings(r, [0], [["y"]]), [0])
        want = "composite nonzero in degree 1"
    elif case == "not injective":  # k -0-> k (+) k -second-> k
        f, g = to(k, kk, [None]), to(kk, k, [None, 0])
        want = "left map not injective in degree 0"
    elif case == "not surjective":  # k -first-> k (+) k -0-> k
        f, g = to(k, kk, [0]), to(kk, k, [None, None])
        want = "right map not surjective in degree 0"
    else:  # k -1-> k -0-> k
        f, g = to(k, k, [0]), to(k, k, [None])
        want = "dimension mismatch in degree 0: 1 != 1+1"
    assert f.verify() and g.verify()
    assert verify_ses(f, g) == (False, want)


def test_annihilated_by():
    r = xy_ring()
    m = module_from_strings(r, [0], [["x"]])
    assert annihilated_by(m, r.base.parse("x"), 1)  # x kills y^1 in A/(x)? x*y = 0
    assert not annihilated_by(m, r.base.parse("y"), 1)


@pytest.mark.parametrize("case", ["ci", "golod", "two-generator"])
def test_action_matrix_equals_projected_free_multiplication(case):
    # reference: the dense block-diagonal multiplication on the free cover,
    # restricted to the representative columns of M_a and projected to M_{a+e}
    import numpy as np

    from syzkit.freemod import free_mult_matrix
    from syzkit.linalg import matmul

    if case == "ci":
        r = ring_from_strings(32003, ["x", "y", "z"], ["x^2", "y^2", "z^2"])
        m = module_from_strings(r, [0], [["x*y"]])
    elif case == "golod":
        r = ring_from_strings(2, ["x", "y"], ["x^2", "x*y", "y^2"])
        m = module_from_strings(r, [0], [["x + y"]])
    else:
        r = ring_from_strings(32003, ["x", "y", "z"], ["x^2 - y*z"])
        m = module_from_strings(r, [0, 1], [["x*y", "y"], ["0", "x + z"]])
    p = r.char
    for a in range(m.min_degree() - 1, 5):
        for e in range(3):
            for j in range(r.dim(e)):
                dense = free_mult_matrix(r, m.gen_degrees, e, j, a)
                want = matmul(m.proj(a + e), dense[:, m._space(a)[0]], p)
                got = m.action_matrix(e, a)[j]
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (a, e, j)


P31 = 2**31 - 1


def _dense_ring(p, n, quadrics, seed):
    """F_p[x_0..x_{n-1}] over `quadrics` quadrics with every coefficient
    nonzero and drawn from a seeded generator, degree bound 6."""
    import random

    from syzkit import polynomials as poly
    from syzkit.rings import PolyRing, TruncatedQuotientRing

    rng = random.Random(seed)
    mons = poly.monomials_of_degree(n, 2)
    gens = [{m: rng.randrange(1, p) for m in mons} for _ in range(quadrics)]
    return TruncatedQuotientRing(PolyRing(p, [f"x{i}" for i in range(n)], 6), gens)


def _monomial_action(m, e, j, a):
    """The j-th basis monomial of R_e on M_a: the block-diagonal free
    multiplication on the representatives of M_a, projected to M_{a+e}."""
    from syzkit.freemod import free_mult_matrix
    from syzkit.linalg import matmul

    dense = free_mult_matrix(m.ring, m.gen_degrees, e, j, a)
    return matmul(m.proj(a + e), dense[:, m._space(a)[0]], m.ring.char)


def test_action_by_ring_vector_matches_the_sequential_sum_near_p():
    # every coefficient p - 1 against entries near p: a product without
    # reduction overflows int64 once four terms are summed.  The element
    # acts on M as the one piece of the map R(-e) -> R, through
    # FreeMap.induced over M
    r = _dense_ring(P31, 3, 1, 7)
    m = module_from_strings(r, [0, 1], [["x0*x1", "x1"], ["0", "x0 + x2"]])
    for e in (2, 3):
        assert r.dim(e) >= 4
        rvec = np.full(r.dim(e), P31 - 1, dtype=np.int64)
        for a in range(0, 4):
            stack = m.action_matrix(e, a)
            want = np.zeros(stack.shape[1:], dtype=np.int64)
            for j in range(r.dim(e)):
                want = (want + int(rvec[j]) * stack[j]) % P31
            got = FreeMap(r, [e], [0], [([0], [0], [rvec])]).induced(a + e, m)
            assert np.array_equal(action_by_ring_vector(m, rvec, e, a), want), (e, a)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (e, a)


def induced_over(fmap, d, x):
    """The degree-d matrix of fmap (x) X, one piece at a time: block (c, b)
    is the piece of column b on c, an element of R_e, acting on X_{d - g_b}
    by `action_by_ring_vector`."""
    from syzkit.freemod import block_matrix

    src, tgt, tw = fmap.source_degrees, fmap.target_degrees, fmap.twist
    placed = {(c, b): action_by_ring_vector(x, piece, src[b] + tw - tgt[c], d - src[b])
              for bs, cs, stack in fmap.records()
              for b, c, piece in zip(bs.tolist(), cs.tolist(), stack)}
    return block_matrix([x.dim(d + tw - h) for h in tgt], [x.dim(d - g) for g in src], placed)


@pytest.mark.parametrize("p", [2, 3, 32003, P31])
def test_induced_over_a_module_matches_the_per_piece_reference(p):
    # maps with scalar pieces (twist 0, degree-1 generators onto degree-1
    # generators), twists 1 and -1, and the zero map, over a module on
    # generators in degrees 0 and 1, its shift into negative degrees and R
    r = ring_from_strings(p, ["x", "y", "z"], ["x*y - z^2"], degree_bound=8)
    m = module_from_strings(r, [0, 1], [["y*z", "z"], ["0", "x + y"]])
    maps = [sample_map(r, twist, seed=p % 1000 + twist) for twist in (0, 1, -1)]
    maps.append(FreeMap.zero(r, SOURCE, TARGET, 1))
    assert any(SOURCE[b] == TARGET[c] for bs, cs, _ in maps[0].records()
               for b, c in zip(bs, cs))  # a scalar piece, at twist 0
    free = free_module(r)
    for fmap in maps:
        for x in (m, m.shifted(-3), free):
            lo = min(x.gen_degrees) + min(SOURCE) - 1
            for d in range(lo, lo + 6):
                got = fmap.induced(d, x)
                assert got.shape == (sum(x.dim(d + fmap.twist - h) for h in TARGET),
                                     sum(x.dim(d - g) for g in SOURCE)), d
                assert np.array_equal(got, induced_over(fmap, d, x)), d
        for d in range(0, 7):
            assert np.array_equal(fmap.induced(d, free), fmap.induced(d)), d
    assert any(maps[0].induced(d, m.shifted(-3)).any() for d in range(-3, 2))


def test_generator_matrix_of_a_module_matches_the_per_monomial_reference():
    from syzkit.modules import generator_matrix

    r = _dense_ring(32003, 3, 1, 3)
    m = module_from_strings(r, [0, 1], [["x0*x1", "x1"], ["0", "x0 + x2"]])
    rng = np.random.default_rng(5)
    gens = m.minimal_generators() + [(1, rng.integers(0, r.char, m.dim(1)))]
    for d in range(0, 5):
        cols = [_monomial_action(m, d - g, j, g) @ w % r.char
                for g, w in gens for j in range(r.dim(d - g))]
        want = np.stack(cols, axis=1) if cols else np.zeros((m.dim(d), 0), dtype=np.int64)
        assert np.array_equal(generator_matrix(m, gens, d), want), d


def test_homology_actions_match_the_per_monomial_reference():
    # Tor_1(R/(x), R/(x)) = R/(x)(-1) over a hypersurface, 2-dimensional
    # from degree 2 on: the stacked action on the homology of F_1 (x) N,
    # and the cover built from it, against one monomial at a time through
    # N's free multiplications
    from functools import partial

    from syzkit.freemod import act, block_matrix
    from syzkit.homological import _homology
    from syzkit.linalg import matmul, solve_many
    from syzkit.modules import generator_matrix, minimal_generators_in
    from syzkit.resolutions import resolve

    r = ring_from_strings(32003, ["x", "y", "z"], ["x^2 - y*z"], degree_bound=8)
    p = r.char
    m = module_from_strings(r, [0], [["x"]])
    n = module_from_strings(r, [0], [["x"]])
    res, homology = _homology(m, n, resolve(m, 2), 2, "Tor_1", False)
    spaces = homology.module(1, partial(act, r, n.dim, n.action_matrix, res.gen_degrees(1)))
    gens = res.gen_degrees(1)

    def monomial_action(e, j, a):
        reps_a, reps_t = homology.classes(1, a), homology.classes(1, a + e)
        if not reps_a.shape[1] or not reps_t.shape[1]:
            return np.zeros((spaces.dim(a + e), spaces.dim(a)), dtype=np.int64)
        sdims = [n.dim(a - g) for g in gens]
        tdims = [n.dim(a + e - g) for g in gens]
        blocks = {(b, b): _monomial_action(n, e, j, a - g)
                  for b, g in enumerate(gens) if sdims[b] and tdims[b]}
        acted = matmul(block_matrix(tdims, sdims, blocks), reps_a, p)
        # classes of the products: coordinates on the representatives,
        # modulo the boundaries
        basis = np.concatenate([reps_t, res.diff(2).induced(a + e, n)], axis=1)
        return solve_many(basis, acted, p)[:reps_t.shape[1]]

    for a in range(0, 5):
        for e in range(0, 3):
            stack = spaces.action_matrix(e, a)
            assert stack.shape == (r.dim(e), spaces.dim(a + e), spaces.dim(a))
            assert a + e < 2 or spaces.dim(a + e) == 2
            for j in range(r.dim(e)):
                assert np.array_equal(stack[j], monomial_action(e, j, a)), (e, j, a)
    mingens = minimal_generators_in(spaces, 0, 5)
    assert mingens
    for d in range(0, 6):
        cols = [monomial_action(d - g, j, g) @ w % p
                for g, w in mingens for j in range(r.dim(d - g))]
        want = np.stack(cols, axis=1) if cols else np.zeros((spaces.dim(d), 0), dtype=np.int64)
        assert np.array_equal(generator_matrix(spaces, mingens, d), want), d


_XS = ["x0", "x1", "x2", "x3"]
_VANISHING_CASES = {  # generator degrees, relation columns
    "k": ([0], [[x] for x in _XS]),
    "cyc3": ([0], [[x] for x in _XS[:3]]),  # M_2 = 0: every quadric has an x3^2 term
    "cyc3-twisted": ([-3], [[x] for x in _XS[:3]]),
    "k(2)+cyc3": ([-2, 0], [[x, "0"] for x in _XS] + [["0", x] for x in _XS[:3]]),
    "cyc3+R(-3)": ([0, 3], [[x, "0"] for x in _XS[:3]]),  # M_2 = 0, M_3 != 0
    "k+R(-3)": ([0, 3], [[x, "0"] for x in _XS]),  # M_1 = M_2 = 0, M_3 != 0
}


@pytest.mark.parametrize("case", sorted(_VANISHING_CASES))
def test_vanishing_components_match_the_relation_span(case):
    # above its generators M_d = R_1 M_{d-1}, so M_{d-1} = 0 gives M_d = 0
    # without elimination; at or below the top generator it must not
    from syzkit.freemod import component_dim
    from syzkit.linalg import quotient_projection

    r = _dense_ring(32003, 4, 2, 11)
    m = module_from_strings(r, *_VANISHING_CASES[case])
    if case.endswith("+R(-3)"):
        assert [m.dim(d) for d in range(4)] == [1, int(case[0] == "c"), 0, 1]
    window = r.degree_window(m.min_degree(), max(m.gen_degrees))
    for d in range(m.min_degree(), window.top + 1):
        amb = component_dim(r, m.gen_degrees, d)
        idx, proj = m._space(d)
        if amb == 0:
            assert (idx, proj.shape) == ([], (0, 0))
            continue
        want_idx, want_proj = quotient_projection(m.relations.induced(d), r.char)
        assert idx == want_idx, d
        assert proj.dtype == want_proj.dtype
        assert np.array_equal(proj, want_proj), d


def _two_term(d2):
    """The complex F_5^2 -d2-> F_5^2 -d1-> F_5^2, d1 = diag(0, 1), in every
    degree, as the callable `Homology` reads."""
    mats = {1: [[0, 0], [0, 1]], 2: d2}
    shapes = {0: (0, 2), 3: (2, 0)}
    return lambda k, d: (np.array(mats[k], dtype=np.int64) if k in mats
                         else np.zeros(shapes[k], dtype=np.int64))


def test_homology_of_a_small_complex():
    # d2 = diag(1, 0): H_2 = <e2>, H_1 = 0, H_0 = <e1>
    h = Homology(ci_ring(5), _two_term([[1, 0], [0, 0]]))
    assert [h.dim(k, 0) for k in (0, 1, 2)] == [1, 0, 1]
    assert h.classes(0, 0).T.tolist() == [[1, 0]]
    assert h.classes(1, 0).shape == (2, 0)
    assert h.classes(2, 0).T.tolist() == [[0, 1]]


def test_homology_refuses_an_adjacent_pair_that_is_not_zero():
    # d1 d2 = e2 e1^T: whichever of d_1, d_2 is built second, the pair is
    # checked then; d_2 with d_3 alone is a complex
    bad = _two_term([[0, 0], [1, 0]])
    with pytest.raises(SyzkitError, match="not a complex: d_1 d_2 is not zero in degree 4"):
        Homology(ci_ring(5), bad).dim(1, 4)
    h = Homology(ci_ring(5), bad)
    assert h.dim(2, 4) == 1
    with pytest.raises(SyzkitError, match="not a complex: d_1 d_2"):
        h.dim(0, 4)
    with pytest.raises(SyzkitError, match="not a complex: d_1 d_2"):
        Homology(ci_ring(5), bad).classes(1, 4)
