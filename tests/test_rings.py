import weakref
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from syzkit import polynomials as poly
from syzkit.errors import DegreeBoundError, HomogeneityError, SyzkitError
from syzkit.linalg import matvec
from syzkit.rings import (
    DegreeWindow,
    PolyRing,
    TruncatedQuotientRing,
    algebra_tensor,
    ring_from_strings,
)
from syzkit.modules import module_from_strings
from poly_oracles import monomial_index, monomials_of_degree, normal_form, poly_vector
from test_linalg import ORACLE_PRIMES


def monomial_mul(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


def polynomial_extension(r, extra, degree_bound=None):
    """r with `extra` fresh degree-1 variables t1, t2, ... (skipping names r
    uses) and no new relations, at r's degree bound unless one is given."""
    fresh = [v for v in (f"t{i}" for i in range(1, len(r.vars) + extra + 1))
             if v not in r.vars][:extra]
    base = PolyRing(r.char, list(r.vars) + fresh,
                    r.degree_bound if degree_bound is None else degree_bound)
    return TruncatedQuotientRing(base, [{m + (0,) * extra: c for m, c in g.items()}
                                        for g in r.ideal_gens])


def poly_mul(f, g, p):
    """The product of two polynomial dicts, term by term."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = monomial_mul(m1, m2)
            v = (out.get(m, 0) + c1 * c2) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def multiply(r, va, a, vb, b):
    """Product of two elements of r given by coordinate vectors in R_a, R_b:
    the stacked maps of R_b on R_a against the products vb[j] * va[i]."""
    stack = r.mult_maps(b, a)
    db, dt, da = stack.shape
    coeffs = np.outer(np.asarray(vb), np.asarray(va)) % r.char
    by_target = stack.transpose(1, 0, 2).reshape(dt, db * da)
    return matvec(by_target, coeffs.reshape(-1), r.char)


def test_monomial_basis_degree_zero():
    s = PolyRing(2, ["x", "y"])
    assert s.monomial_basis(0) == [(0, 0)]


def test_monomial_basis_lex_order_two_vars():
    s = PolyRing(2, ["x", "y"])
    assert s.monomial_basis(2) == [(2, 0), (1, 1), (0, 2)]  # x^2, xy, y^2


def test_monomial_basis_counts():
    s = PolyRing(3, ["x", "y", "z"])
    assert len(s.monomial_basis(2)) == 6
    for d in range(5):
        assert len(s.monomial_basis(d)) == comb(3 + d - 1, d)


@pytest.mark.parametrize("n, bound, top", [(1, 6, 6), (2, 6, 6), (3, 6, 6), (4, 6, 6),
                                            (30, 42, 2)])
def test_monomial_positions_match_the_index(n, bound, top):
    # 30 variables: counts for every degree up to 42 overflow int64
    s = PolyRing(5, [f"x{i}" for i in range(n)], degree_bound=bound)
    for d in range(top + 1):
        index = monomial_index(s, d)
        exps = np.array(list(index), dtype=np.int64).reshape(-1, n)
        assert s.monomial_positions(exps, d).tolist() == list(index.values())


@pytest.mark.parametrize("n, top", [(1, 6), (2, 6), (3, 6), (4, 6), (5, 6), (30, 2)])
def test_exponents_match_the_recursive_enumeration(n, top):
    s = PolyRing(5, [f"x{i}" for i in range(n)], degree_bound=top)
    for d in range(top + 1):
        exps = s.exponents(d)
        assert exps.dtype == np.int64 and exps.shape == (s.dim(d), n)
        assert list(map(tuple, exps.tolist())) == monomials_of_degree(n, d)
        assert s.monomial_basis(d) == monomials_of_degree(n, d)
        assert s.monomial_positions(exps, d).tolist() == list(range(s.dim(d)))
    assert s.exponents(-1).shape == (0, n) and s.monomial_basis(-1) == []
    with pytest.raises(DegreeBoundError, match="monomial basis"):
        s.exponents(top + 1)


def test_a_ring_needs_a_variable():
    with pytest.raises(SyzkitError, match="at least one variable"):
        ring_from_strings(5, [], [])


def test_monomial_basis_beyond_bound():
    s = PolyRing(2, ["x", "y"], degree_bound=3)
    with pytest.raises(DegreeBoundError):
        s.monomial_basis(4)


def test_ideal_component_examples():
    r = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"])
    comp = r.ideal_component(2)
    assert comp.shape == (3, 2)
    assert np.linalg.matrix_rank(comp.astype(float)) == 2

    assert r.ideal_component(0).shape[1] == 0

    r2 = ring_from_strings(3, ["x", "y"], ["x*y"])
    comp3 = r2.ideal_component(3)  # span{x^2 y, x y^2}
    from syzkit.linalg import rank

    assert rank(comp3, 3) == 2


def _loop_ideal_component(r, d):
    """I_d column by column: one poly_mul and one coordinate vector per
    shifting monomial, generator-major."""
    cols = []
    for g in r.ideal_gens:
        e = poly.poly_degree(g)
        if e <= d:
            cols += [poly_vector(r.base, poly_mul({m: 1}, g, r.char), d)
                     for m in r.base.monomial_basis(d - e)]
    return np.stack(cols, axis=1) if cols else np.zeros((r.base.dim(d), 0), dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
@pytest.mark.parametrize("seed", range(3))
def test_ideal_component_matches_poly_mul(p, seed):
    import random

    rng = random.Random(1000 * seed + p % 1000)
    n = rng.randint(1, 5)
    bound = {1: 12, 2: 12, 3: 12, 4: 10, 5: 8}[n]
    mons = {e: monomials_of_degree(n, e) for e in (1, 2, 3)}
    # a linear form, a pure monomial, and a dense relation of degree 2 or 3
    gens = [{m: rng.randrange(1, p) for m in mons[1]},
            {rng.choice(mons[rng.randint(1, 3)]): 1}]
    e = rng.randint(2, 3)
    gens.append({m: rng.randrange(1, p) for m in rng.sample(mons[e], min(4, len(mons[e])))})
    r = TruncatedQuotientRing(PolyRing(p, [f"x{i}" for i in range(n)], bound), gens)
    for d in range(bound + 1):
        got = r.ideal_component(d)
        assert got.dtype == np.int64
        assert np.array_equal(got, _loop_ideal_component(r, d))


def test_hilbert_complete_intersection():
    r = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"])
    assert r.hilbert_function(5) == [1, 2, 1, 0, 0, 0]
    assert r.is_artinian_within_bound()
    # collapsed at R_3 = 0: read to top degree 2 above the highest generator, no margin
    assert r.degree_window(-1, 1) == DegreeWindow(-1, 3, 3, 12)


def test_hilbert_hypersurface():
    r = ring_from_strings(3, ["x", "y"], ["x*y"])
    assert r.hilbert_function(5) == [1, 2, 2, 2, 2, 2]
    assert not r.is_artinian_within_bound()
    # ring degrees counted from the lowest generator, margin 2
    assert r.degree_window(-1, 1) == DegreeWindow(-1, 11, 9, 12)


def test_trivial_quotient_matches_polynomial_ring():
    r = ring_from_strings(5, ["x", "y", "z"], [])
    for d in range(6):
        assert r.dim(d) == comb(3 + d - 1, d)


def test_degree_queries_above_bound_after_collapse():
    r = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"], degree_bound=6)
    assert r.dim(3) == 0
    assert r.dim(100) == 0  # known zero once collapsed


FIRST_QUERIES = {
    "nothing": lambda r: None,
    "dim below D": lambda r: r.dim(3),
    "dim at D": lambda r: r.dim(r.degree_bound),
    "artinian": lambda r: r.is_artinian_within_bound(),
    "normal forms": lambda r: r.nf_matrix(2),
    "basis": lambda r: r.basis_monomials(1),
}
ABOVE_D = {
    "dim": (lambda r, d: r.dim(d), 0),
    "nf_matrix": (lambda r, d: r.nf_matrix(d).shape, (0, 0)),
    "basis_monomials": (lambda r, d: r.basis_monomials(d), []),
    "module dim": (lambda r, d: module_from_strings(r, [0], [["x"]]).dim(d), 0),
}


@pytest.mark.parametrize("first", sorted(FIRST_QUERIES))
@pytest.mark.parametrize("query", sorted(ABOVE_D))
@pytest.mark.parametrize("ends", [True, False])
def test_degree_queries_above_bound_do_not_depend_on_query_order(first, query, ends):
    # F_2[x,y]/(x^2, y^2) ends in degree 3, within D = 4: every degree above
    # D is 0.  F_2[x,y]/(x^2) does not end: a degree above D is refused,
    # naming it, whatever was asked before
    r = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"] if ends else ["x^2"], degree_bound=4)
    FIRST_QUERIES[first](r)
    ask, zero = ABOVE_D[query]
    for d in (7, 6):
        if ends:
            assert ask(r, d) == zero
        else:
            with pytest.raises(DegreeBoundError, match=rf"internal degree {d} exceeds "
                                                       r"degree bound 4 \(ring component\)"):
                ask(r, d)


@pytest.mark.parametrize("ends", [True, False])
def test_each_degree_is_eliminated_once_in_any_order(monkeypatch, ends):
    # the tables are filled in ascending degree, one rref_stack per degree,
    # up to the first zero component or to D, whatever order asks for them
    from syzkit import rings

    widths, eliminate = [], rings.rref_stack

    def spy(top, mat, p):
        widths.append(mat.shape[1])
        return eliminate(top, mat, p)

    monkeypatch.setattr(rings, "rref_stack", spy)
    relations = ["x^2", "y^2", "z^2"] if ends else ["x^2 + y*z", "y^3"]
    bound, top = 6, 4 if ends else 6  # R_3 = <xyz>, R_4 = 0 in the first
    rng = np.random.default_rng(7)
    orders = [list(range(-1, bound + 3)), list(range(bound + 2, -2, -1))]
    orders += [list(rng.permutation(range(-1, bound + 3))) for _ in range(4)]
    for order in orders:
        r = ring_from_strings(3, ["x", "y", "z"], relations, degree_bound=bound)
        widths.clear()
        for d in order:
            for ask in (r.dim, r.nf_matrix, r.basis_monomials, r.hilbert_function):
                try:
                    ask(int(d))
                except DegreeBoundError:
                    assert not ends and d > bound
        assert r.is_artinian_within_bound() == ends
        assert widths == [r.base.dim(d) for d in range(top + 1)], order


def test_the_fill_holds_no_elimination_of_the_degree_below(monkeypatch):
    # the RREF of I_{d-1} is dropped before I_d is eliminated, so the fill's
    # peak memory is that of one degree's elimination
    from syzkit import rings

    held, eliminate = [], rings.rref_stack

    def spy(top, mat, p):
        assert [ref() for ref in held] == [None] * len(held)
        out = eliminate(top, mat, p)
        held.append(weakref.ref(out[0]))
        return out

    monkeypatch.setattr(rings, "rref_stack", spy)
    r = ring_from_strings(3, ["x", "y", "z"], ["x^2 + y*z", "y^3"], degree_bound=6)
    assert not r.is_artinian_within_bound()  # one call fills every degree
    assert len(held) == 7 and r.hilbert_function(6) == [1, 3, 5, 6, 6, 6, 6]


def test_normal_form_examples():
    r = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"])
    assert not normal_form(r, r.base.parse("x^2"), 2).any()
    # basis monomial goes to a unit coordinate vector
    mons = r.basis_monomials(1)
    v = normal_form(r, {mons[0]: 1}, 1)
    assert list(v) == [1, 0]
    # x^2 + x*y reduces to x*y
    v2 = normal_form(r, r.base.parse("x^2 + x*y"), 2)
    assert r.base.format(r.vector_to_poly(v2, 2)) == "x*y"


def test_build_quotient_rejects_bad_generators():
    s = PolyRing(2, ["x", "y"])
    with pytest.raises(HomogeneityError):
        ring_from_strings(2, ["x", "y"], ["x^2 + y"])
    with pytest.raises(SyzkitError, match="relation 1 is a nonzero constant: a unit"):
        TruncatedQuotientRing(s, [{(0, 0): 1}])
    # a zero relation, also one whose coefficients vanish mod p
    for zero in ({}, {(1, 1): 2}):
        with pytest.raises(SyzkitError, match="relation 2 is zero mod 2"):
            TruncatedQuotientRing(s, [{(2, 0): 1}, zero])


def test_algebra_tensor_hilbert_convolutions():
    r1 = ring_from_strings(2, ["x"], ["x^2"])
    r2 = ring_from_strings(2, ["y"], ["y^2"])
    t = algebra_tensor(r1, r2)
    assert t.hilbert_function(4) == [1, 2, 1, 0, 0]

    direct = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"])
    assert t.hilbert_function(4) == direct.hilbert_function(4)

    r3 = ring_from_strings(2, ["y"], ["y^3"])
    t2 = algebra_tensor(r1, r3)
    assert t2.hilbert_function(4) == [1, 2, 2, 1, 0]


def test_algebra_tensor_with_field():
    r = ring_from_strings(2, ["x"], ["x^2"])
    k = ring_from_strings(2, ["t"], ["t"])  # k = F_2[t]/(t)
    t = algebra_tensor(r, k)
    assert t.hilbert_function(3) == r.hilbert_function(3)


def test_algebra_tensor_mismatch():
    with pytest.raises(SyzkitError):
        algebra_tensor(ring_from_strings(2, ["x"], []), ring_from_strings(3, ["y"], []))


def test_polynomial_extension_hilbert():
    r = ring_from_strings(2, ["x"], ["x^2"])
    e = polynomial_extension(r, 1)
    assert e.hilbert_function(4) == [1, 2, 2, 2, 2]

    s = ring_from_strings(2, ["x", "y"], [])
    e2 = polynomial_extension(s, 2)
    assert e2.vars == ("x", "y", "t1", "t2")
    assert e2.dim(2) == comb(4 + 2 - 1, 2)

    ci = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"])
    e3 = polynomial_extension(ci, 1)
    assert e3.hilbert_function(3) == [1, 3, 4, 4]


def test_multiplication_commutative_associative_small():
    for params in [
        (2, ["x", "y"], ["x^2", "y^2"]),
        (3, ["x", "y"], ["x*y"]),
        (5, ["x", "y"], ["x^2 + y^2"]),
    ]:
        r = ring_from_strings(*params, degree_bound=6)
        dmax = 4
        for a in range(dmax):
            for b in range(dmax - a):
                for c in range(dmax - a - b):
                    for va in _basis_vectors(r, a):
                        for vb in _basis_vectors(r, b):
                            ab = multiply(r, va, a, vb, b)
                            ba = multiply(r, vb, b, va, a)
                            assert np.array_equal(ab, ba)
                            for vc in _basis_vectors(r, c):
                                left = multiply(r, ab, a + b, vc, c)
                                right = multiply(r, va, a, multiply(r, vb, b, vc, c), b + c)
                                assert np.array_equal(left, right)


def _basis_vectors(r, d):
    n = r.dim(d)
    out = []
    for i in range(n):
        v = np.zeros(n, dtype=np.int64)
        v[i] = 1
        out.append(v)
    return out


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_normal_form_is_multiplicative(seed):
    rng = np.random.default_rng(seed)
    r = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=8)
    a = int(rng.integers(0, 3))
    b = int(rng.integers(0, 3))
    fa = {m: int(rng.integers(0, 3)) for m in r.base.monomial_basis(a)}
    fb = {m: int(rng.integers(0, 3)) for m in r.base.monomial_basis(b)}
    fa = {m: c for m, c in fa.items() if c}
    fb = {m: c for m, c in fb.items() if c}
    lhs = normal_form(r, poly_mul(fa, fb, 3), a + b)
    rhs = multiply(r, normal_form(r, fa, a), a, normal_form(r, fb, b), b)
    assert np.array_equal(lhs, rhs)


def test_parse_format_roundtrip():
    s = PolyRing(5, ["x", "y"])
    for text in ["x^2 + 2*x*y", "3*y^3", "x + y", "0", "4*x^2*y"]:
        f = s.parse(text)
        again = s.parse(s.format(f))
        assert f == again


def test_parse_negative_coefficients():
    s = PolyRing(5, ["x", "y"])
    f = s.parse("x - y")
    assert f[(0, 1)] == 4


def _gathered_mult_map(r, e, j, a):
    """Multiplication by the j-th basis monomial of R_e on R_a, one column
    per basis monomial of R_a, through the monomial index of S_{a+e}."""
    da, dt = r.dim(a), r.dim(a + e)
    if da == 0 or dt == 0:
        return np.zeros((dt, da), dtype=np.int64)
    mj = r.basis_monomials(e)[j]
    idx = monomial_index(r.base, a + e)
    cols = [idx[monomial_mul(mj, m)] for m in r.basis_monomials(a)]
    return r.nf_matrix(a + e)[:, cols]


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("kind", ["dense", "artinian"])
def test_mult_maps_match_the_per_monomial_gather(p, kind):
    import random

    rng = random.Random(p % 10007 + len(kind))
    n = rng.randint(1, 4) if kind == "dense" else 3
    bound = {1: 8, 2: 8, 3: 7, 4: 6}[n]
    mons = {e: monomials_of_degree(n, e) for e in (2, 3)}
    if kind == "dense":  # one dense quadric and a sparse cubic
        gens = [{m: rng.randrange(1, p) for m in mons[2]},
                {m: rng.randrange(1, p) for m in rng.sample(mons[3], 2)}]
    else:  # squares of the variables: R_4 = 0, so R_e is known for every e
        gens = [{m: 1} for m in mons[2] if max(m) == 2]
    r = TruncatedQuotientRing(PolyRing(p, [f"x{i}" for i in range(n)], bound), gens)
    top = bound
    if kind == "artinian":
        assert r.is_artinian_within_bound()
        top = bound + 3
    for e in range(top + 1):
        for a in range(-2, top - e + 1):  # a < 0, e = 0 and a + e = top included
            stack = r.mult_maps(e, a)
            assert stack.dtype == np.int64
            assert stack.shape == (r.dim(e), r.dim(a + e), r.dim(a))
            for j in range(r.dim(e)):
                assert np.array_equal(stack[j], _gathered_mult_map(r, e, j, a)), (e, j, a)
                # a view of the stack, not a copy
                assert not stack.size or np.shares_memory(r.mult_map(e, j, a), stack)


def _seeded_ideals(p, gen):
    """(variables, relation strings) of seeded homogeneous ideals: dense
    quadrics, cubics, a monomial ideal and one whose ring collapses below
    the degree bound."""

    def form(names, d):
        mons = PolyRing(p, names).monomial_basis(d)
        coeffs = gen.integers(0, p, size=len(mons))
        coeffs[0] = 1 + gen.integers(0, p - 1)
        return " + ".join(f"{c}*" + "*".join(f"{v}^{k}" for v, k in zip(names, m) if k)
                          for c, m in zip(coeffs, mons) if c)

    xy, xyz = ["x", "y"], ["x", "y", "z"]
    monomials = ["*".join(f"{v}^{k}" for v, k in zip(xyz, gen.integers(0, 3, size=3)) if k)
                 for _ in range(4)]
    return [
        (xy, [form(xy, 2)]),
        (xyz, [form(xyz, 2), form(xyz, 2)]),
        (xyz, [form(xyz, 3), form(xyz, 3)]),
        (xyz, [m for m in monomials if m]),
        (xyz, ["x^3", "y^3", "z^3", form(xyz, 2)]),
    ]


def _standard_monomial_counts(names, relations, p, dmax):
    """dim R_d for d <= dmax as the number of degree-d monomials outside
    the leading monomials of a grevlex Groebner basis (sympy, over F_p)."""
    import sympy

    symbols = sympy.symbols(names)
    polys = [sympy.sympify(s.replace("^", "**"), locals=dict(zip(names, symbols)))
             for s in relations]
    basis = sympy.groebner(polys, *symbols, modulus=p, order="grevlex")
    leads = [sympy.Poly(g, *symbols, modulus=p).monoms(order="grevlex")[0] for g in basis.exprs]
    return [sum(not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)
                for m in PolyRing(p, names).monomial_basis(d))
            for d in range(dmax + 1)]


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_hilbert_function_matches_a_groebner_basis(p):
    # an oracle independent of the degreewise row reduction: sympy's
    # Buchberger over F_p, read through the standard monomials
    bound = 8
    collapsed = 0
    for names, relations in _seeded_ideals(p, np.random.default_rng(p % 997)):
        ring = ring_from_strings(p, names, relations, degree_bound=bound)
        want = _standard_monomial_counts(names, relations, p, bound)
        assert ring.hilbert_function(bound) == want, relations
        collapsed += want[-1] == 0
    assert collapsed >= 1


# -- ring tables from the previous degree, against the from-scratch RREF -----

def _form(gen, p, n, d, terms=None):
    """A homogeneous form of degree d in n variables with coefficients in
    1..p-1: every monomial, or `terms` random ones."""
    mons = monomials_of_degree(n, d)
    if terms is not None:
        mons = [mons[i] for i in gen.choice(len(mons), min(terms, len(mons)), replace=False)]
    return {m: int(c) for m, c in zip(mons, gen.integers(1, p, len(mons)))}


def _table_rings(p, gen):
    """name -> (variables, generators, degree bound) of seeded rings."""
    def x(n, *exps):
        return {tuple(exps) + (0,) * (n - len(exps)): 1}

    f = _form(gen, p, 3, 2)
    return {
        "one dense quadric": (3, [_form(gen, p, 3, 2)], 8),
        "two dense quadrics": (4, [_form(gen, p, 4, 2), _form(gen, p, 4, 2)], 7),
        "three dense quadrics": (4, [_form(gen, p, 4, 2) for _ in range(3)], 7),
        "quadric and cubic": (3, [_form(gen, p, 3, 2, terms=3), _form(gen, p, 3, 3)], 9),
        "monomial ideal": (3, [x(3, 2), x(3, 1, 1), x(3, 0, 0, 3), x(3, 0, 2, 2)], 8),
        "linear relations": (4, [_form(gen, p, 4, 1), _form(gen, p, 4, 1),
                                 _form(gen, p, 4, 2)], 8),
        "collapses within D": (3, [x(3, 3), x(3, 0, 3), x(3, 0, 0, 3), _form(gen, p, 3, 2)], 8),
        "relation above D": (2, [_form(gen, p, 2, 2, terms=2), _form(gen, p, 2, 7)], 6),
        "repeated and proportional": (3, [f, f, {m: (p - 1) * c % p for m, c in f.items()},
                                          _form(gen, p, 3, 3)], 8),
    }


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
@pytest.mark.parametrize("name", ["quadric and cubic", "collapses within D"])
def test_normal_forms_match_a_lex_groebner_basis(p, name):
    # an oracle independent of the degreewise row reduction: sympy's
    # remainder on division by a lex Groebner basis over F_p is the one
    # representative of m on the standard monomials, which span R_d
    import sympy

    n, gens, bound = _table_rings(p, np.random.default_rng(p % 1009))[name]
    r = TruncatedQuotientRing(PolyRing(p, [f"x{i}" for i in range(n)], bound), gens)
    xs = sympy.symbols(r.vars)

    def expr(m):
        return sympy.Mul(*(x**k for x, k in zip(xs, m)))

    basis = sympy.groebner([sum(c * expr(m) for m, c in g.items()) for g in gens], *xs,
                           modulus=p, order="lex").exprs
    for d in range(bound + 1):
        index = {m: i for i, m in enumerate(r.basis_monomials(d))}
        want = np.zeros((r.dim(d), r.base.dim(d)), dtype=np.int64)
        for j, m in enumerate(r.base.monomial_basis(d)):
            _, rem = sympy.reduced(expr(m), basis, *xs, modulus=p, order="lex")
            for mono, c in sympy.Poly(rem, *xs, modulus=p).terms():
                if c % p:  # sympy's residues are symmetric
                    want[index[mono], j] = int(c) % p
        assert np.array_equal(r.nf_matrix(d), want), (name, d)
    assert r.is_artinian_within_bound() == (name == "collapses within D")


def _new_pivot_degrees(r):
    """Degrees d in which RREF(I_d) has a pivot outside x_k * (pivots of
    I_{d-1})."""
    out = []
    for d in range(1, r.degree_bound + 1):
        if r.dim(d) == 0 and r.dim(d - 1) == 0:
            break
        mons, below = r.base.monomial_basis(d), set(r.basis_monomials(d - 1))
        shifted = {monomial_mul(m, v) for m in r.base.monomial_basis(d - 1)
                   if m not in below for v in r.base.monomial_basis(1)}
        if set(mons) - set(r.basis_monomials(d)) - shifted:
            out.append(d)
    return out


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_ring_tables_match_the_from_scratch_rref(p):
    from syzkit.linalg import quotient_projection

    rings = _table_rings(p, np.random.default_rng(p % 1009))
    for name, (n, gens, bound) in rings.items():
        base = PolyRing(p, [f"x{i}" for i in range(n)], bound)
        if name == "relation above D":
            # no I_d with d <= D reads the degree-7 relation: refused, where
            # it was dropped; the tables of the ring without it still match
            with pytest.raises(DegreeBoundError, match=r"internal degree 7 exceeds degree "
                                                       r"bound 6 \(relation 2\)"):
                TruncatedQuotientRing(base, gens)
            gens = gens[:1]
        r = TruncatedQuotientRing(base, gens)
        for d in range(bound + 1):
            want_idx, want_nf = quotient_projection(r.ideal_component(d), p)
            mons = r.base.monomial_basis(d)
            assert r.basis_monomials(d) == [mons[i] for i in want_idx], (name, d)
            assert r.nf_matrix(d).tolist() == want_nf.tolist(), (name, d)
        if name == "quadric and cubic":
            assert len(_new_pivot_degrees(r)) >= 3, _new_pivot_degrees(r)
        if name == "collapses within D":
            assert r.is_artinian_within_bound()


def test_ring_tables_above_degree_four_eliminate_no_full_degree(monkeypatch):
    # two dense quadrics in four variables get no new pivot from degree 5
    # on: the rows shifted from below span I_d, and the elimination sees
    # only the columns that carry no shifted lead
    from syzkit import linalg

    gen = np.random.default_rng(5)
    r = TruncatedQuotientRing(PolyRing(32003, ["x", "y", "z", "w"], 10),
                              [_form(gen, 32003, 4, 2), _form(gen, 32003, 4, 2)])
    widths = []
    eliminate = linalg._eliminate

    def spy(mat, p):
        widths.append(mat.shape[1])
        return eliminate(mat, p)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    assert r.hilbert_function(10) == [1, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40]
    assert widths  # the residual is still eliminated
    assert not set(widths) & {r.base.dim(d) for d in range(5, 11)}
