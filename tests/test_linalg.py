import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from syzkit import linalg


def _mat(rows, p):
    """A reduced mod-p matrix from nested lists."""
    return np.array(rows, dtype=np.int64) % p


def test_rref_identity_f5():
    ident = linalg.identity(2)
    r, pivots, rk = linalg.rref(ident, 5)
    assert np.array_equal(r, ident)
    assert pivots == [0, 1]
    assert rk == 2


def test_rref_zero_matrix():
    z = linalg.zeros(3, 4)
    r, pivots, rk = linalg.rref(z, 7)
    assert np.array_equal(r, z)
    assert pivots == []
    assert rk == 0


def test_rref_rank_one_f5():
    # hand row reduction: R2 -= 2*R1
    m = _mat([[1, 2], [2, 4]], 5)
    r, pivots, rk = linalg.rref(m, 5)
    assert np.array_equal(r, _mat([[1, 2], [0, 0]], 5))
    assert pivots == [0]
    assert rk == 1


def test_kernel_identity_empty():
    k = linalg.kernel_basis(linalg.identity(3), 3)
    assert k.shape == (3, 0)


def test_kernel_zero_map():
    k = linalg.kernel_basis(linalg.zeros(2, 3), 5)
    assert np.array_equal(k, linalg.identity(3))


def test_kernel_sum_f2():
    # solve x + y = 0 over F_2
    k = linalg.kernel_basis(_mat([[1, 1]], 2), 2)
    assert k.shape == (2, 1)
    assert np.array_equal(k[:, 0], np.array([1, 1]))


def test_solve_identity():
    b = np.array([[2], [3], [1]])
    v = linalg.solve_many(linalg.identity(3), b, 5)
    assert np.array_equal(v, b)


def test_solve_zero_matrix_inconsistent():
    with pytest.raises(ValueError, match="inconsistent"):
        linalg.solve_many(linalg.zeros(2, 2), np.array([[1], [0]]), 3)


def test_solve_scalar_f5():
    # 2 * 4 = 8 = 3 mod 5
    v = linalg.solve_many(_mat([[2]], 5), np.array([[3]]), 5)
    assert v[0, 0] == 4


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.solve_many(linalg.identity(2), np.array([[1], [2], [3]]), 5)


def test_complement_full_space():
    c = linalg.coset_complement(linalg.identity(3), 3, 2)
    assert c.shape == (3, 0)


def test_complement_of_zero():
    c = linalg.coset_complement(linalg.zeros(3, 0), 3, 5)
    assert np.array_equal(c, linalg.identity(3))


def test_complement_of_diagonal_line_f2():
    # rref pivot on coordinate 0, complement is e_1
    sub = _mat([[1], [1]], 2)
    c = linalg.coset_complement(sub, 2, 2)
    assert c.shape == (2, 1)
    assert np.array_equal(c[:, 0], np.array([0, 1]))


# spans of no columns, or in no coordinates, at the oracle primes
EMPTY_SPANS = [(linalg.zeros(*shape), p) for shape in [(4, 0), (1, 0), (0, 3), (0, 0)]
               for p in (2, 3, 32003, 2**31 - 1)]


def with_empty_spans(candidates=()):
    """hypothesis examples for an oracle test of (span, p), or of (matrix,
    p) and a split when given candidate counts: every empty span, followed
    by each count of candidate columns."""
    def add(test):
        for span, p in EMPTY_SPANS:
            if not candidates:
                test = example((span, p))(test)
            for k in candidates:
                cand = np.arange(1, span.shape[0] * k + 1, dtype=np.int64).reshape(span.shape[0], k) % p
                test = example((np.concatenate([span, cand], axis=1), p), span.shape[1])(test)
        return test
    return add


def test_quotient_projection_kills_span():
    for span, p in [(_mat([[1, 0], [1, 1], [0, 1]], 3), 3)] + EMPTY_SPANS:
        idx, proj = linalg.quotient_projection(span, p)
        n = span.shape[0]
        assert len(idx) == n - linalg.rank(span, p)
        assert proj.shape == (len(idx), n)
        assert np.array_equal(linalg.matmul(proj, span, p),
                              linalg.zeros(len(idx), span.shape[1]))
        # identity on the chosen basis coordinates
        assert np.array_equal(proj[:, idx], linalg.identity(len(idx)))


def test_extend_basis_picks_new_directions():
    span = _mat([[1], [0], [0]], 5)
    cand = _mat([[2, 0, 1], [0, 0, 1], [0, 0, 0]], 5)
    chosen = linalg.extend_basis(span, cand, 5)
    assert chosen == [2]


small_primes = st.sampled_from([2, 3, 5, 7])


@st.composite
def matrix_and_prime(draw):
    p = draw(small_primes)
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    entries = draw(
        st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return np.array(entries, dtype=np.int64).reshape(rows, cols) % p, p


@settings(deadline=None, max_examples=60)
@given(matrix_and_prime())
def test_rref_idempotent(mp):
    m, p = mp
    r1, piv1, _ = linalg.rref(m, p)
    r2, piv2, _ = linalg.rref(r1, p)
    assert np.array_equal(r1, r2)
    assert piv1 == piv2


@settings(deadline=None, max_examples=60)
@given(matrix_and_prime())
def test_rank_nullity(mp):
    m, p = mp
    k = linalg.kernel_basis(m, p)
    assert linalg.rank(m, p) + k.shape[1] == m.shape[1]
    if m.shape[0] and k.shape[1]:
        assert not linalg.matmul(m, k, p).any()


@settings(deadline=None, max_examples=60)
@given(matrix_and_prime(), st.integers(0, 10**6))
def test_solve_exact_when_consistent(mp, seed):
    m, p = mp
    if m.shape[1] == 0:
        return
    rng = np.random.default_rng(seed)
    x = rng.integers(0, p, size=m.shape[1])
    b = (m.astype(np.int64) @ x) % p
    v = linalg.solve_many(m, b.reshape(-1, 1), p)[:, 0]
    assert np.array_equal((m.astype(np.int64) @ v) % p, b)


@settings(deadline=None, max_examples=40)
@given(matrix_and_prime())
def test_complement_dimension(mp):
    m, p = mp
    c = linalg.coset_complement(m, m.shape[0], p)
    assert c.shape[1] == m.shape[0] - linalg.rank(m, p)


# -- exact products and vectorised null spaces --------------------------------

P31 = 2**31 - 1
# k (p-1)^2 < 2^53 holds for inner dimension k <= 8 only, so k in 1..20
# crosses from one float64 product to the 16-bit limb split
P25 = 33554393


def test_matmul_exact_at_largest_prime():
    a = _mat([[P31 - 1] * 3], P31)
    b = _mat([[P31 - 1]] * 3, P31)
    assert linalg.matmul(a, b, P31).tolist() == [[3]]


def _reference_product(a, b, p):
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]


@st.composite
def product_operands(draw):
    p = draw(st.sampled_from([2, 11, 13, 32003, P25, P31]))
    m, k, n = draw(st.integers(1, 3)), draw(st.integers(1, 20)), draw(st.integers(1, 3))
    entry = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return a, b, p


@settings(deadline=None, max_examples=150)
@given(product_operands())
def test_matmul_matches_python_integers(operands):
    a, b, p = operands
    out = linalg.matmul(_mat(a, p), _mat(b, p), p)
    assert out.dtype == np.int64
    assert out.tolist() == _reference_product(a, b, p)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 20), st.integers(0, 10**6))
def test_chunked_float_products_stay_exact(k, seed):
    # the bound caps each product of two entries: entries up to 2^25 give
    # products up to 2^50 and chunks of 7 inner terms, so k in 1..20 covers
    # one chunk and several
    bound = 2**25
    rng = np.random.default_rng(seed)
    a = rng.integers(bound - 4, bound + 1, size=(2, k))
    b = rng.integers(bound - 4, bound + 1, size=(k, 3))
    out = linalg._product_mod(a.astype(np.float64), b.astype(np.float64), P31, bound * bound)
    assert out.tolist() == _reference_product(a.tolist(), b.tolist(), P31)


def _loop_null_space(mat, p):
    r, pivots, _ = linalg.rref(mat, p)
    cols = r.shape[1]
    free = [j for j in range(cols) if j not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, j in enumerate(free):
        basis[j, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-int(r[i, j])) % p
    return basis, free


@st.composite
def matrix_any_prime(draw):
    p = draw(st.sampled_from([2, 3, 7, 13, 32003, P31]))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    # low rank on purpose: a product of two thin random factors
    inner = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    left = _mat(rng.integers(0, p, size=(rows, inner)), p)
    right = _mat(rng.integers(0, p, size=(inner, cols)), p)
    return linalg.matmul(left, right, p) if inner else linalg.zeros(rows, cols), p


@settings(deadline=None, max_examples=80)
@given(matrix_any_prime())
def test_vectorised_kernel_basis_matches_loop_reference(mp):
    m, p = mp
    want, want_free = _loop_null_space(m, p)
    basis, free = linalg._null_space(m, p)
    assert free == want_free
    assert np.array_equal(basis, want)
    assert np.array_equal(linalg.kernel_basis(m, p), want)
    assert np.array_equal(basis[free], np.eye(len(free), dtype=basis.dtype))
    if m.shape[0] and basis.shape[1]:
        assert not linalg.matmul(m, basis, p).any()


@settings(deadline=None, max_examples=80)
@given(matrix_any_prime())
def test_vectorised_quotient_projection_matches_loop_reference(mp):
    span, p = mp
    ambient = span.shape[0]
    idx, proj = linalg.quotient_projection(span, p)
    if span.shape[1] == 0:
        assert idx == list(range(ambient))
        assert np.array_equal(proj, linalg.identity(ambient))
        return
    want, want_free = _loop_null_space(span.T, p)
    assert idx == want_free
    assert np.array_equal(proj, want.T)
    assert np.array_equal(proj[:, idx], np.eye(len(idx), dtype=proj.dtype))
    if proj.shape[0]:
        assert not linalg.matmul(proj, span, p).any()


# -- elimination against a Python-integer Gauss-Jordan oracle -----------------

ORACLE_PRIMES = [2, 3, 11, 13, 32003, P31]


def _gauss_jordan(rows, cols, p):
    """RREF and pivot columns of a list-of-rows matrix, in Python integers."""
    a = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def _oracle_rank(rows, cols, p):
    return len(_gauss_jordan(rows, cols, p)[1])


def _rows_left(m, p):
    """The rows t of m with rank(m[t:]) = rank(m[t+1:]), ranks by
    `_gauss_jordan`: the rows that carry no last-nonzero pivot, and the
    identity columns that extend m's column span."""
    ranks = [_oracle_rank(m[t:].tolist(), m.shape[1], p) for t in range(m.shape[0] + 1)]
    return [t for t in range(m.shape[0]) if ranks[t] == ranks[t + 1]]


@st.composite
def elimination_case(draw):
    """(matrix, p): 0-12 x 0-12, dense, sparse, or of forced low rank."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["dense", "sparse", "deficient"]))
    if kind == "sparse":
        entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(1, p - 1))
    else:
        entry = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    if kind == "deficient":
        # every row a combination of fewer than min(rows, cols) base rows
        k = draw(st.integers(0, max(0, min(rows, cols) - 1)))
        base = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=k, max_size=k))
        coeffs = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                               min_size=rows, max_size=rows))
        data = [[sum(c * b[j] for c, b in zip(cs, base)) % p for j in range(cols)]
                for cs in coeffs]
    else:
        data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    return _mat(np.array(data, dtype=np.int64).reshape(rows, cols), p), p


@settings(deadline=None, max_examples=200)
@given(elimination_case())
def test_rref_and_rank_match_gauss_jordan_oracle(case):
    m, p = case
    want, want_pivots = _gauss_jordan(m.tolist(), m.shape[1], p)
    r, pivots, rk = linalg.rref(m, p)
    assert r.dtype == np.int64
    assert r.tolist() == want
    assert pivots == want_pivots
    assert rk == len(want_pivots)
    assert linalg.rank(m, p) == len(want_pivots)


@settings(deadline=None, max_examples=150)
@given(elimination_case(), st.integers(0, 12))
@with_empty_spans(candidates=(0, 2))
def test_extend_basis_matches_independence_oracle(case, split):
    # candidate j is chosen iff it is independent of the span and of the
    # candidates before it
    m, p = case
    split = min(split, m.shape[1])
    span, cand = m[:, :split], m[:, split:]
    cols_of = m.T.tolist()
    want = [j for j in range(cand.shape[1])
            if _oracle_rank(cols_of[:split + j + 1], m.shape[0], p)
            > _oracle_rank(cols_of[:split + j], m.shape[0], p)]
    assert linalg.extend_basis(span, cand, p) == want


@settings(deadline=None, max_examples=150)
@given(elimination_case())
@with_empty_spans()
def test_coset_complement_matches_dependent_rows_oracle(case):
    # coordinate i is chosen iff row i of sub depends on the rows above it;
    # those unit vectors complete the column span of sub to the whole space
    sub, p = case
    n, rows_of = sub.shape[0], sub.tolist()
    want = [i for i in range(n)
            if _oracle_rank(rows_of[:i + 1], sub.shape[1], p)
            == _oracle_rank(rows_of[:i], sub.shape[1], p)]
    comp = linalg.coset_complement(sub, n, p)
    assert comp.shape == (n, len(want))
    assert comp.tolist() == np.eye(n, dtype=np.int64)[:, want].tolist()
    both = np.concatenate([sub, comp], axis=1).T.tolist()
    assert _oracle_rank(both, n, p) == n


def _structured(kind, rows, cols, p, rng):
    """A rows x cols matrix mod p whose pattern has many single-nonzero
    rows or columns, so that `rank` peels most of its pivots."""
    m = np.zeros((rows, cols), dtype=np.int64)
    n = min(rows, cols)
    if kind == "monomial":
        k = rng.integers(0, n + 1)
        m[np.arange(k), np.arange(k)] = rng.integers(1, p, size=k)
    elif kind == "triangular":
        # upper triangular with a nonzero diagonal and some fill above it,
        # then a few rows that combine the others
        k = rng.integers(0, n + 1)
        fill = rng.random((k, k)) < 0.3
        m[:k, :k] = np.triu(np.where(fill, rng.integers(0, p, size=(k, k)), 0), 1)
        m[np.arange(k), np.arange(k)] = rng.integers(1, p, size=k)
        extra = min(rows, k + rng.integers(0, 4)) - k
        m[k:k + extra] = linalg.matmul(rng.integers(0, p, size=(extra, k)), m[:k], p)
    elif kind == "shared_row":
        # several single-nonzero columns sharing row 0, next to a sparse block
        k = min(cols, rng.integers(2, 8))
        m[:, k:] = np.where(rng.random((rows, cols - k)) < 0.2,
                            rng.integers(0, p, size=(rows, cols - k)), 0)
        m[0, :k] = rng.integers(1, p, size=k)
    elif kind == "zero_lines":
        m = rng.integers(0, p, size=(rows, cols))
        m[rng.random(rows) < 0.4] = 0
        m[:, rng.random(cols) < 0.4] = 0
    else:  # "bordered": a dense core, of low rank at times, and singletons
        cr, cc = rng.integers(1, rows + 1), rng.integers(1, cols + 1)
        inner = rng.integers(1, min(cr, cc) + 1)
        m[:cr, :cc] = linalg.matmul(rng.integers(0, p, size=(cr, inner)),
                                    rng.integers(0, p, size=(inner, cc)), p)
        for j in range(cc, cols):
            m[rng.integers(0, rows), j] = rng.integers(1, p)
        for i in range(cr, rows):
            m[i, rng.integers(0, cols)] = rng.integers(1, p)
    return m[rng.permutation(rows)][:, rng.permutation(cols)]


@st.composite
def structured_case(draw):
    kind = draw(st.sampled_from(["monomial", "triangular", "shared_row", "zero_lines",
                                 "bordered"]))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 60))
    return kind, rows, cols, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@settings(deadline=None, max_examples=40)
@given(structured_case())
def test_peeled_rank_matches_gauss_jordan_oracle(p, case):
    # shapes up to 40 x 60 are above the peel cut-off, unlike elimination_case
    kind, rows, cols, seed = case
    m = _structured(kind, rows, cols, p, np.random.default_rng(seed))
    want = _oracle_rank(m.tolist(), cols, p)
    assert linalg.rank(m, p) == want, kind
    assert linalg.rank(m.T, p) == want, kind


def _sparse_with_core(rows, cols, p, rng):
    """A rows x cols matrix mod p with 2-8 nonzeros a row, a filled dense
    core, and rows that combine two others, so that elimination meets sparse
    and dense pivot rows, fill-in and dependent rows."""
    m = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        at = rng.choice(cols, rng.integers(2, 9), replace=False)
        m[i, at] = rng.integers(1, p, size=at.size)
    core_rows = rng.choice(rows, rng.integers(0, rows // 3 + 1), replace=False)
    core_cols = rng.choice(cols, rng.integers(1, cols // 2 + 1), replace=False)
    m[np.ix_(core_rows, core_cols)] = rng.integers(0, p, size=(core_rows.size, core_cols.size))
    for i in rng.choice(rows, rng.integers(0, rows // 4 + 1), replace=False):
        j, k = rng.choice(rows, 2, replace=False)
        m[i] = (rng.integers(1, p) * m[j] % p + rng.integers(0, p) * m[k] % p) % p
    return m


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@settings(deadline=None, max_examples=15)
@given(st.integers(16, 40), st.integers(130, 160), st.integers(0, 2**32 - 1),
       st.integers(0, 160))
def test_sparse_row_updates_match_gauss_jordan_oracle(p, rows, cols, seed, split):
    # above _SPARSE_MIN_CELLS, pivot rows with few nonzeros are updated
    # through flat indices; every result must equal the dense oracle's
    m = _sparse_with_core(rows, cols, p, np.random.default_rng(seed))
    assert m.size > linalg._SPARSE_MIN_CELLS
    want, pivots = _gauss_jordan(m.tolist(), cols, p)
    r, got_pivots, rk = linalg.rref(m, p)
    assert r.tolist() == want and got_pivots == pivots and rk == len(pivots)
    assert linalg.rank(m, p) == rk
    # the pivot-only kernel leaves no echelon form to compare: its pivots,
    # and the rows that no pivot used, which are the identity columns that
    # extend the column span
    left = _rows_left(m, p)
    assert linalg._pivot_columns(m, p) == (pivots, left)
    assert linalg.extend_basis(m, linalg.identity(rows), p) == left
    # the kernel vector of free column j: 1 at j, -R[i, j] at the i-th pivot
    free = [j for j in range(cols) if j not in pivots]
    assert linalg.free_columns(m, p) == free
    kernel = np.zeros((cols, len(free)), dtype=np.int64)
    kernel[free, range(len(free))] = 1
    for i, c in enumerate(pivots):
        kernel[c] = [-want[i][j] % p for j in free]
    assert linalg.kernel_basis(m, p).tolist() == kernel.tolist()
    split = min(split, cols)
    assert linalg.extend_basis(m[:, :split], m[:, split:], p) == \
        [c - split for c in pivots if c >= split]
    # a complement is the non-pivot coordinates of the transpose's rref; the
    # second call hands `_pivot_columns` the Fortran-ordered view m.T
    assert linalg.coset_complement(m.T, cols, p).tolist() == \
        np.eye(cols, dtype=np.int64)[:, free].tolist()
    t_pivots = _gauss_jordan(m.T.tolist(), rows, p)[1]
    assert linalg.coset_complement(m, rows, p).tolist() == \
        np.eye(rows, dtype=np.int64)[:, [i for i in range(rows) if i not in t_pivots]].tolist()


@pytest.mark.parametrize("p", [2, 3, 32003, P31])
@pytest.mark.parametrize("kind", ["zero rows", "zero columns", "deficient", "zero",
                                  "full row rank"])
def test_pivot_columns_match_gauss_jordan_oracle_on_the_dense_path(p, kind):
    # up to _SPARSE_MIN_CELLS cells the pivot-only kernel updates whole
    # rows; shapes with no rows or no columns, lines of zeros, rows that
    # combine others, zero matrices and full row rank must all give the
    # oracle's pivots and rows left, and so must their transposes, which
    # are Fortran-ordered views
    rng = np.random.default_rng(p % 1009 + len(kind))
    for rows, cols in [(0, 6), (6, 0), (1, 1), (3, 8), (9, 4), (12, 12), (25, 40), (40, 50)]:
        assert rows * cols <= linalg._SPARSE_MIN_CELLS
        if kind == "full row rank":
            rows = min(rows, cols)
        for density in (0.1, 0.5, 1.0):
            m = np.where(rng.random((rows, cols)) < density,
                         rng.integers(0, p, size=(rows, cols)), 0)
            if kind == "zero rows":
                m[rng.random(rows) < 0.4] = 0
            elif kind == "zero columns":
                m[:, rng.random(cols) < 0.4] = 0
            elif kind == "zero":
                m[:] = 0
            elif kind == "full row rank":  # an echelon form, its rows shuffled
                leads = np.sort(rng.choice(cols, rows, replace=False))
                m[np.arange(cols) < leads[:, None]] = 0
                m[range(rows), leads] = rng.integers(1, p, size=rows)
                m = m[rng.permutation(rows)]
            elif min(rows, cols) > 1:  # rank below min(rows, cols)
                k = rng.integers(0, min(rows, cols))
                m = linalg.matmul(m[:, :k], rng.integers(0, p, size=(k, cols)), p)
            for view in (m, m.T):
                width = view.shape[1]
                pivots = _gauss_jordan(view.tolist(), width, p)[1]
                assert linalg._pivot_columns(view, p) == (pivots, _rows_left(view, p)), \
                    (rows, cols, density)
                assert linalg.free_columns(view, p) == [j for j in range(width)
                                                        if j not in pivots]
                assert linalg.rank(view, p) == len(pivots)
                if kind == "deficient" and min(rows, cols) > 1:
                    assert len(pivots) < min(rows, cols)
                if kind in ("zero", "full row rank"):
                    assert len(pivots) == (rows if kind == "full row rank" else 0)


@pytest.mark.parametrize("k", [1, 63, 64, 65, 200, 600])
def test_limb_split_products_match_python_integers_at_the_largest_prime(k):
    # at p = 2^31 - 1 every k takes the 16-bit limb split of the operand with
    # fewer entries; a limb times a residue is < 2^47, so a chunk sums 64 of
    # them and k = 63..65 meets the chunk edge
    for m, n in ((2, 5), (5, 2)):  # split a, then b
        a = np.full((m, k), P31 - 1, dtype=np.int64)
        b = np.full((k, n), P31 - 1, dtype=np.int64)
        # (p - 1)^2 = 1 mod p, so every entry is k
        assert linalg.matmul(a, b, P31).tolist() == [[k % P31] * n] * m
        rng = np.random.default_rng(k * m)
        a = rng.integers(P31 - 2**17, P31, size=(m, k))
        b = rng.integers(0, P31, size=(k, n))
        out = linalg.matmul(a, b, P31)
        assert out.dtype == np.int64
        assert out.tolist() == _reference_product(a.tolist(), b.tolist(), P31)


# -- primality ---------------------------------------------------------------


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division_below_20000():
    assert [n for n in range(20000) if linalg.is_prime(n)] == \
        [n for n in range(20000) if _trial_division(n)]


def test_is_prime_on_pseudoprimes_and_large_cases():
    assert linalg.is_prime(P31)
    # strong pseudoprimes to base 2, and Carmichael numbers
    for n in (2047, 3277, 4033, 561, 1105):
        assert not linalg.is_prime(n)
    # squares of the primes around sqrt(2^31) ~ 46341
    for q in (46327, 46337, 46349, 46351):
        assert _trial_division(q)
        assert linalg.is_prime(q)
        assert not linalg.is_prime(q * q)


def _solve_one(a, b, p):
    """Reference: the v with a @ v = b whose free coordinates are 0, from
    the RREF of [a | b], or None if b is not in the column span."""
    cols = a.shape[1]
    r, pivots, rk = linalg.rref(np.concatenate([a, b.reshape(-1, 1)], axis=1), p)
    if cols in pivots:
        return None
    v = linalg.zeros(cols, 1)[:, 0]
    v[pivots] = r[:rk, cols]
    return v


@pytest.mark.parametrize("p", [2, 3, 32003, P31])
def test_solve_many_matches_column_by_column_solve(p):
    rng = np.random.default_rng(p % 1000)
    shapes = [(7, 9, 5, 4), (9, 6, 4, 6), (5, 5, 3, 0), (6, 8, 1, 6), (0, 4, 2, 0)]
    for rows, cols, k, rk in shapes:
        # a rank-rk matrix and right-hand sides in its column span
        a = linalg.matmul(rng.integers(0, p, size=(rows, rk)),
                          rng.integers(0, p, size=(rk, cols)), p)
        bs = linalg.matmul(a, rng.integers(0, p, size=(cols, k)), p)
        want = np.stack([_solve_one(a, bs[:, j], p) for j in range(k)], axis=1)
        got = linalg.solve_many(a, bs, p)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        assert linalg.solve_many(a, bs[:, :0], p).shape == (cols, 0)
        # one column outside the span makes the whole system inconsistent
        outside = next((linalg.identity(rows)[:, [i]] for i in range(rows)
                        if _solve_one(a, linalg.identity(rows)[:, i], p) is None), None)
        if outside is not None:
            with pytest.raises(ValueError, match="inconsistent"):
                linalg.solve_many(a, np.concatenate([bs, outside], axis=1), p)


# -- rref of echelon rows stacked on a matrix ---------------------------------

def _unit_rows(leads, cols, p, rng, chain):
    """Rows with a unit at each lead and zeros left of it, in shuffled order.
    Right of the lead the entries are random and half of them zero; with
    chain, a row is nonzero at no other lead than the next row's, so the
    back-solve needs one level per lead."""
    rows = np.zeros((len(leads), cols), dtype=np.int64)
    for i, c in enumerate(leads):
        rows[i, c] = 1
        rows[i, c + 1:] = rng.integers(0, p, cols - c - 1) * (rng.random(cols - c - 1) < 0.5)
        if chain:
            rows[i, [c2 for c2 in leads if c2 > c]] = 0
            if i + 1 < len(leads):
                rows[i, leads[i + 1]] = rng.integers(1, p)
    return rows[rng.permutation(len(leads))]


# (columns, leads of E, leads of the residual, chain, M zero)
STACK_CASES = {
    "residual left of the leads": (12, [4, 7, 9], [1], False, False),
    "residual between the leads": (12, [2, 8, 10], [5], False, False),
    "residual right of the leads": (12, [0, 3, 5], [11], False, False),
    "residual on every side": (12, [3, 6], [1, 4, 10], False, False),
    "nothing new": (12, [1, 2, 6, 7], [], False, False),
    "M zero": (12, [1, 2, 6], [], False, True),
    "E empty": (12, [], [0, 5, 7], False, False),
    "chain of depth 5": (14, [1, 3, 5, 7, 9, 11], [2, 13], True, False),
}


@pytest.mark.parametrize("p", [2, 3, 32003, P31])
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_rref_stack_is_the_rref_of_the_stack(p, case):
    cols, leads, new, chain, zero = STACK_CASES[case]
    rng = np.random.default_rng([p % 1000, len(case)])
    top = _unit_rows(leads, cols, p, rng, chain)
    residual = _unit_rows(new, cols, p, rng, False)
    # M: combinations of E's rows and the residual's, then the residual itself
    mixed = np.concatenate([top, residual])
    mat = np.concatenate([linalg.matmul(rng.integers(0, p, (7, len(mixed))), mixed, p),
                          residual])[rng.permutation(7 + len(new))]
    if zero:
        mat = linalg.zeros(5, cols)
    r, pivots, rk = linalg.rref_stack(top, mat, p)
    want, want_pivots, want_rk = linalg.rref(np.concatenate([top, mat]), p)
    assert r.dtype == np.int64 and r.shape == want.shape
    assert r.tolist() == want.tolist()
    assert pivots == want_pivots == sorted(leads + new)
    assert rk == want_rk
