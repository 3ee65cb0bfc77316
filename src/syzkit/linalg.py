"""Exact dense linear algebra over prime fields F_p, for every prime p < 2^31.

Matrices are 2-D int64 numpy arrays with entries reduced mod p, for every
p: a row operation's products stay below (p-1)^2 < 2^62.

Products run through float64 BLAS with delayed reduction (Dumas, Giorgi &
Pernet, FFLAS/FFPACK): a float64 sum of k products of residues is exact
while k (p-1)^2 < 2^53, so one `@` and one reduction mod p in int64
suffice.  Otherwise the operand with fewer entries is split into 16-bit
limbs x = hi * 2^16 + lo; a limb times a residue is below 2^47, so the
inner dimension is summed in chunks of 64, and two products (not four)
are recombined mod p in int64, in place, so that at most two arrays of
the output's size are alive.  Operands must be reduced (0 <= entry < p).

Elimination runs in two loops.  `_eliminate` gives the RREF: rows at and
below the current pivot row are zero left of the pivot column, so each
step scales and updates only the columns from the pivot onward; and when
at most half of those are nonzero in the pivot row (resolution matrices
are 1-4% dense), only those, since subtracting a multiple of zero changes
nothing.  The touched rows are gathered and scattered there through flat
indices, with the same result (`_subtract`, which both loops call).
Matrices of at most `_SPARSE_MIN_CELLS` cells skip that pattern work.
`_pivot_columns` serves the callers that read only the pivots, and
neither swaps, scales nor clears above: one `nonzero()` of column c gives
its nonzero rows, the last is the pivot row, the others are cleared with
the multipliers a[t, c] / a[r, c], and the pivot row is then zeroed.
Every row is zero left of c at step c, so zeroing the pivot row only sets
it aside, as a swap would: the pivots are an echelon's, and the column
rank profile, which is unique, is the RREF's.  Clearing earlier rows with
later ones keeps each vector's last nonzero, so the pivot rows are where
the vectors of span(A) end, and the rows left, which it returns too, are
the t with e_t outside span(A) + span(e_0..e_{t-1}): the identity columns
that extend the span, as `extend_basis(A, I)` picks them.
`rref_stack` gives the RREF of rows stacked under rows that already have
unit leads in distinct columns, and eliminates only what those rows
leave over.

`rank` first peels structural pivots off the nonzero pattern, as in
structured Gaussian elimination (LaMacchia & Odlyzko, CRYPTO 1990;
Bouillaguet & Delaplace, CASC 2016).  If column c has its one nonzero in
row r, then rank = 1 + the rank without row r and column c: column
operations with c clear row r and touch nothing else.  So each round drops
every single-nonzero column together with the rows of those nonzeros, and
adds the number of distinct rows (columns that share a row count once);
when single-nonzero rows outnumber such columns, it does the same with
rows and columns swapped.  Only the boolean pattern and its live row and
column counts change, never an entry, so the count needs no arithmetic
and is exact for every p.  The core left over is cut out once and goes
through `_pivot_columns`.  Up to `_PEEL_MIN_CELLS` cells the pattern work
costs as much as it saves or more (44 against 13 us a call at 16 cells),
so small matrices go straight to `_pivot_columns`.  The rows hit are deduped
with a boolean mask, not `np.unique`, which costs more peak memory.

All routines are deterministic: pivots are chosen leftmost-first, free
variables are zeroed (`solve_many` is the one linear solve), complements
use standard basis vectors.
"""

import numpy as np

_FLOAT_EXACT = 2 ** 53  # float64 integers are exact below this
_LIMB_MASK = 2 ** 16 - 1
_MR_BASES = (2, 3, 5, 7)
_PEEL_MIN_CELLS = 100  # rank below this size runs `_pivot_columns` directly
_SPARSE_MIN_CELLS = 2000  # eliminations below this size update dense rows only


def is_prime(n):
    """Deterministic Miller-Rabin with bases 2, 3, 5, 7: exact for
    n < 3,215,031,751, which covers every supported prime (< 2^31)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x != 1 and all(pow(x, 2 ** i, n) != n - 1 for i in range(s)):
            return False
    return True


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n):
    return np.eye(n, dtype=np.int64)


def pack(a):
    """a by its nonzero entries: (shape, flat indices, values)."""
    at = np.flatnonzero(a)
    return a.shape, at, a.reshape(-1)[at]


def unpack(packed):
    """The matrix that `pack` stored."""
    (rows, cols), at, values = packed
    out = zeros(rows, cols)
    out.reshape(-1)[at] = values
    return out


def _product_mod(a, b, p, bound):
    """a @ b mod p in int64, for float64 operands whose entry products are at
    most bound: the inner dimension is summed in chunks that stay exact."""
    step = max(1, (_FLOAT_EXACT - 1) // bound)
    out = (a[:, :step] @ b[:step]).astype(np.int64)
    out %= p
    for s in range(step, a.shape[1], step):
        out += (a[:, s:s + step] @ b[s:s + step]).astype(np.int64) % p
        out %= p
    return out


def matmul(a, b, p):
    """Exact mod-p product of reduced matrices, through float64 BLAS."""
    k = a.shape[1]
    if a.shape[0] == 0 or b.shape[1] == 0 or k == 0:
        return zeros(a.shape[0], b.shape[1])
    if k * (p - 1) ** 2 < _FLOAT_EXACT:
        return _product_mod(a.astype(np.float64), b.astype(np.float64), p, (p - 1) ** 2)
    # split the operand with fewer entries (a @ b = (b.T @ a.T).T) into
    # 16-bit limbs x = hi * 2^16 + lo: a limb times a residue is < 2^47
    flip = a.size > b.size
    small, whole = (b.T, a.T) if flip else (a, b)
    whole, bound = whole.astype(np.float64), _LIMB_MASK * (p - 1)
    out = _product_mod((small >> 16).astype(np.float64), whole, p, bound)
    out <<= 16
    out += _product_mod((small & _LIMB_MASK).astype(np.float64), whole, p, bound)
    out %= p
    return out.T.copy() if flip else out


def matvec(a, v, p):
    return matmul(a, v.reshape(-1, 1), p)[:, 0]


def seeded_combinations(basis, p, rng, count):
    """basis @ c mod p for each of count draws c = rng.integers(0, p), one
    per column, in draw order, skipping the draws that are 0."""
    for _ in range(count):
        coeffs = rng.integers(0, p, size=basis.shape[1])
        if coeffs.any():
            yield matvec(basis, coeffs, p)


def _pivot_row(a, r, c):
    """Where pivot row r is worked on from column c: its nonzero columns,
    when a has more than `_SPARSE_MIN_CELLS` cells and at most half of them
    are nonzero, else the slice c:."""
    if a.size > _SPARSE_MIN_CELLS:
        live = a[r, c:].nonzero()[0] + c
        if 2 * live.size <= a.shape[1] - c:
            return live
    return slice(c, None)


def _subtract(a, r, touched, f, at, p):
    """a[touched, at] -= f * a[r, at] mod p, f a column of multipliers;
    columns `at` are gathered and scattered through flat indices."""
    if isinstance(at, slice):
        a[touched, at] = (a[touched, at] - f * a[r, at]) % p
    else:
        flat = a.reshape(-1)  # a view: a is C-contiguous
        cells = (touched * a.shape[1])[:, None] + at
        flat[cells] = (flat[cells] - f * a[r, at]) % p


def _eliminate(mat, p):
    """Gauss-Jordan elimination mod p; returns (the RREF of mat, pivot_columns).

    Each pivot row is scaled to 1 and its column cleared above and below
    the pivot.  Rows at and below the pivot row are zero left of the pivot
    column, so every step touches only the columns from the pivot onward.
    """
    a = np.mod(mat, p, dtype=np.int64, order="C")
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = a[r:, c].nonzero()[0]
        if not nz.size:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr], c:] = a[[pr, r], c:]
        at = _pivot_row(a, r, c)
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r, at] = a[r, at] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        touched = col.nonzero()[0]
        if touched.size:
            _subtract(a, r, touched, col[touched, None], at, p)
        pivots.append(c)
        r += 1
    return a, pivots


def _pivot_columns(mat, p):
    """(the pivot columns of mat mod p, leftmost-first; the rows that carry
    no pivot, ascending), by an echelon that takes the last nonzero row of
    each column as its pivot row (see the module docstring)."""
    a = np.mod(mat, p, dtype=np.int64, order="C")
    rows, cols = a.shape
    left = [True] * rows
    pivots = []
    for c in range(cols):
        if len(pivots) == rows:  # every row has been a pivot row: a is zero
            break
        nz = a[:, c].nonzero()[0]
        if not nz.size:
            continue
        r, touched = nz[-1], nz[:-1]
        if touched.size:
            f = a[touched, c] * pow(int(a[r, c]), -1, p) % p
            _subtract(a, r, touched, f[:, None], _pivot_row(a, r, c), p)
        a[r, c:] = 0
        left[r] = False
        pivots.append(c)
    return pivots, [t for t in range(rows) if left[t]]


def rref(mat, p):
    """Reduced row echelon form.

    Returns (R, pivot_columns, rank) with pivot columns strictly
    increasing.  Elimination clears above and below each pivot in one
    sweep, over the columns from the pivot onward; pivot rows are scaled
    to 1.
    """
    a, pivots = _eliminate(mat, p)
    return a, pivots, len(pivots)


def _back_solve(top, leads, free, p):
    """The free columns of top's rows, each row reduced at every lead but
    its own.  Row i depends on row j when it is nonzero at j's lead; the
    rows whose dependencies are all reduced are reduced together, one
    `matmul` per level."""
    t = top[:, leads]
    x = top[:, free]
    waiting = t != 0
    np.fill_diagonal(waiting, False)
    done = ~waiting.any(axis=1)
    while not done.all():
        level = np.flatnonzero(~done & ~(waiting & ~done).any(axis=1))
        below = np.flatnonzero(done)
        x[level] = (x[level] - matmul(t[level][:, below], x[below], p)) % p
        done[level] = True
    return x


def rref_stack(top, mat, p):
    """`rref` of the stack [top; mat] of reduced matrices, for a `top` whose
    rows have unit leading entries in distinct columns.  As in the A/B/C/D
    split of Faugere & Lachartre (PASCO 2010), only the free columns (no
    lead of top) are computed on: top is back-solved, mat is reduced against
    it in one `matmul`, the nonzero rows left over are eliminated, and their
    pivots are cleared from top's rows.  An empty top is `rref(mat, p)`."""
    if not len(top):
        return rref(mat, p)
    cols = mat.shape[1]
    leads = (top != 0).argmax(axis=1)
    is_lead = np.zeros(cols, dtype=bool)
    is_lead[leads] = True
    free = np.flatnonzero(~is_lead)
    x = _back_solve(top, leads, free, p)
    left = (mat[:, free] - matmul(mat[:, leads], x, p)) % p
    new, new_pivots = _eliminate(left[left.any(axis=1)], p)
    new = new[:len(new_pivots)]
    x = (x - matmul(x[:, new_pivots], new, p)) % p
    pivots = np.concatenate([leads, free[new_pivots]])
    order = np.argsort(pivots)
    pivots, rk = pivots[order], len(pivots)
    r = zeros(len(top) + len(mat), cols)
    r[:rk, free] = np.concatenate([x, new])[order]
    r[np.arange(rk), pivots] = 1
    return r, pivots.tolist(), rk


def _peel(nz, row_count, col_count, cols):
    """Remove the singleton columns `cols` of the pattern nz, and the rows
    that hold their nonzeros; returns the number of distinct rows removed.
    Updates nz and the live counts in place."""
    # a boolean mask, not np.unique, dedupes the rows hit: less peak memory
    singles = nz[:, cols]
    hit = np.zeros(nz.shape[0], dtype=bool)
    hit[singles.argmax(axis=0)] = True
    row_count -= singles.sum(axis=1)
    col_count[cols] = 0
    nz[:, cols] = False
    col_count -= nz[hit].sum(axis=0)
    row_count[hit] = 0
    nz[hit] = False
    return int(np.count_nonzero(hit))


def rank(mat, p):
    """Rank mod p: structural pivots peeled off the nonzero pattern, then
    `_pivot_columns` on the core that is left (see the module docstring)."""
    if np.size(mat) <= _PEEL_MIN_CELLS:
        return len(_pivot_columns(mat, p)[0])
    a = np.asarray(mat, dtype=np.int64) % p
    nz = a != 0
    row_count, col_count = nz.sum(axis=1), nz.sum(axis=0)
    rk = 0
    while True:
        cols = np.flatnonzero(col_count == 1)
        rows = np.flatnonzero(row_count == 1)
        if rows.size > cols.size:
            rk += _peel(nz.T, col_count, row_count, rows)
        elif cols.size:
            rk += _peel(nz, row_count, col_count, cols)
        else:
            break
    core_rows, core_cols = np.flatnonzero(row_count), np.flatnonzero(col_count)
    if not core_rows.size:
        return rk
    return rk + len(_pivot_columns(a[np.ix_(core_rows, core_cols)], p)[0])


def _non_pivots(n, pivots):
    """Columns 0..n-1 that carry no pivot, ascending."""
    taken = set(pivots)
    return [j for j in range(n) if j not in taken]


def free_columns(mat, p):
    """The columns of mat that carry no pivot, ascending: the free columns
    of rref(mat), read off `_pivot_columns` (the column rank profile is
    the RREF's)."""
    return _non_pivots(np.shape(mat)[1], _pivot_columns(mat, p)[0])


def _null_space(mat, p):
    """(basis, free): the columns of basis span the right null space of mat,
    and basis[free] is the identity (`rref_null_space` of rref(mat))."""
    r, pivots, _ = rref(mat, p)
    free = _non_pivots(r.shape[1], pivots)
    return rref_null_space(r, pivots, free, r.shape[1], p), free


def rref_null_space(r, pivots, free, width, p):
    """The null vectors of an RREF R with pivot columns `pivots` for the
    non-pivot columns `free`, as the columns of a width x len(free) matrix:
    the one for free column j has 1 at j, -R[i, j] at the i-th pivot column
    and 0 elsewhere.  Given every non-pivot column, a basis of R's kernel."""
    basis = zeros(width, len(free))
    basis[free, range(len(free))] = 1
    basis[pivots] = -r[:len(pivots), free] % p
    return basis


def kernel_basis(mat, p):
    """Columns form a basis of the right null space: `rref_null_space` for
    every non-pivot column of rref(mat)."""
    return _null_space(mat, p)[0]


def solve_many(mat, bs, p):
    """The X with mat @ X = bs whose free coordinates are 0, from one rref of
    [mat | bs], which is unique, so column j does not depend on the others;
    ValueError if a column of bs is not in the column span."""
    cols = np.shape(mat)[1]
    x = zeros(cols, bs.shape[1])
    if not bs.shape[1]:
        return x
    r, pivots, rk = rref(np.concatenate([mat, bs], axis=1), p)
    if rk and pivots[-1] >= cols:
        raise ValueError("inconsistent system in solve_many")
    x[pivots] = r[:rk, cols:]
    return x


def coset_complement(sub, ambient_dim, p):
    """Standard basis vectors spanning a complement of the column span of `sub`.

    Chosen as the non-pivot coordinates of rref(sub^T) for determinism.
    """
    return identity(ambient_dim)[:, free_columns(np.transpose(sub), p)]


def quotient_projection(span, p):
    """Quotient of F_p^ambient by the column span of `span` (ambient x k).

    Returns (basis_indices, proj) where basis_indices are the standard
    coordinates (non-pivots of rref(span^T)) whose classes form a basis of
    the quotient, and proj is the (len(basis_indices) x ambient) matrix of
    the projection in those coordinates.  proj is the identity on the
    chosen basis coordinates and vanishes exactly on the span: its rows
    are the null space of span^T.
    """
    basis, free = _null_space(np.transpose(span), p)
    return free, np.ascontiguousarray(basis.T)


def extend_basis(span, candidates, p):
    """Indices of candidate columns extending a basis of span's column space.

    Computed as the pivots of rref([span | candidates]) that land in the
    candidate block; deterministic echelon order.
    """
    n0 = np.shape(span)[1]
    pivots = _pivot_columns(np.concatenate([span, candidates], axis=1), p)[0]
    return [c - n0 for c in pivots if c >= n0]
