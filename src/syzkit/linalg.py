"""Exact dense linear algebra over prime fields F_p.

Matrices are 2-D numpy integer arrays with entries reduced mod p.  For
p <= 11 arrays use int8 (row operations stay within int8 range since all
intermediate products are at most (p-1)^2 <= 100); larger primes use
int64.  All routines are deterministic: pivots are chosen leftmost-first,
free variables are zeroed, complements use standard basis vectors.
"""

import numpy as np

_SMALL_PRIME_MAX = 11


def dtype_for(p):
    return np.int8 if p <= _SMALL_PRIME_MAX else np.int64


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def zeros(rows, cols, p):
    return np.zeros((rows, cols), dtype=dtype_for(p))


def identity(n, p):
    return np.eye(n, dtype=dtype_for(p))


def as_matrix(data, p):
    """Coerce nested lists / arrays to a reduced mod-p matrix."""
    a = np.asarray(data, dtype=np.int64) % p
    return a.astype(dtype_for(p))


def matmul(a, b, p):
    """Exact mod-p product; accumulates in int64 to avoid overflow."""
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return zeros(a.shape[0], b.shape[1], p)
    prod = (a.astype(np.int64) @ b.astype(np.int64)) % p
    return prod.astype(a.dtype)


def matvec(a, v, p):
    return matmul(a, v.reshape(-1, 1), p)[:, 0]


def rref(mat, p):
    """Reduced row echelon form.

    Returns (R, pivot_columns, rank) with pivot columns strictly
    increasing.  Elimination clears above and below each pivot in one
    sweep; pivot rows are scaled to 1.
    """
    a = np.array(mat, dtype=dtype_for(p), copy=True) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        touched = np.nonzero(col)[0]
        if touched.size:
            a[touched] = (a[touched] - np.outer(col[touched], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots, len(pivots)


def rank(mat, p):
    return rref(mat, p)[2]


def _non_pivots(n, pivots):
    """Columns 0..n-1 that carry no pivot, ascending."""
    taken = set(pivots)
    return [j for j in range(n) if j not in taken]


def kernel_basis(mat, p):
    """Columns form a basis of the right null space.

    Deterministic standard-basis completion: each non-pivot column j
    yields the vector with 1 at j and -R[i, j] at pivot column i.
    """
    a = np.asarray(mat)
    rows, cols = a.shape
    if cols == 0:
        return zeros(0, 0, p)
    if rows == 0:
        return identity(cols, p)
    r, pivots, rk = rref(a, p)
    free = _non_pivots(cols, pivots)
    basis = zeros(cols, len(free), p)
    for k, j in enumerate(free):
        basis[j, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-int(r[i, j])) % p
    return basis


def solve(mat, b, p):
    """Some v with mat @ v = b, or None if b is not in the column span.

    Free coordinates are set to 0.
    """
    a = np.asarray(mat)
    rows, cols = a.shape
    b = np.asarray(b).reshape(-1)
    if b.shape[0] != rows:
        raise ValueError(f"dimension mismatch: {rows} rows, got b of length {b.shape[0]}")
    aug = zeros(rows, cols + 1, p)
    if cols:
        aug[:, :cols] = np.asarray(a, dtype=aug.dtype) % p
    aug[:, cols] = np.asarray(b, dtype=np.int64) % p
    r, pivots, rk = rref(aug, p)
    if cols in pivots:
        return None
    v = zeros(cols, 1, p)[:, 0]
    for i, pc in enumerate(pivots):
        v[pc] = r[i, cols]
    return v


def solve_many(mat, bs, p):
    """Solve mat @ X = bs column-by-column; every column must be consistent."""
    cols = []
    for j in range(bs.shape[1]):
        v = solve(mat, bs[:, j], p)
        if v is None:
            raise ValueError("inconsistent system in solve_many")
        cols.append(v)
    if not cols:
        return zeros(mat.shape[1], 0, p)
    return np.stack(cols, axis=1)


def coset_complement(sub, ambient_dim, p):
    """Standard basis vectors spanning a complement of the column span of `sub`.

    Chosen as the non-pivot coordinates of rref(sub^T) for determinism.
    """
    sub = np.asarray(sub)
    if sub.size == 0 or sub.shape[1] == 0:
        return identity(ambient_dim, p)
    _, pivots, _ = rref(sub.T, p)
    free = _non_pivots(ambient_dim, pivots)
    basis = zeros(ambient_dim, len(free), p)
    for k, j in enumerate(free):
        basis[j, k] = 1
    return basis


def quotient_projection(span, ambient_dim, p):
    """Quotient of F_p^ambient by the column span of `span`.

    Returns (basis_indices, proj) where basis_indices are the standard
    coordinates (non-pivots of rref(span^T)) whose classes form a basis of
    the quotient, and proj is the (len(basis_indices) x ambient) matrix of
    the projection in those coordinates.  proj is the identity on the
    chosen basis coordinates and vanishes exactly on the span.
    """
    span = np.asarray(span)
    if span.size == 0 or span.shape[1] == 0:
        return list(range(ambient_dim)), identity(ambient_dim, p)
    r, pivots, rk = rref(span.T, p)
    free = _non_pivots(ambient_dim, pivots)
    proj = zeros(len(free), ambient_dim, p)
    for k, j in enumerate(free):
        proj[k, j] = 1
        # class of pivot coordinate pc: e_pc = -(free part of rref row i)
        for i, pc in enumerate(pivots):
            proj[k, pc] = (-int(r[i, j])) % p
    return free, proj


def extend_basis(span, candidates, p):
    """Indices of candidate columns extending a basis of span's column space.

    Computed as the pivots of rref([span | candidates]) that land in the
    candidate block; deterministic echelon order.
    """
    span = np.asarray(span)
    candidates = np.asarray(candidates)
    n0 = span.shape[1] if span.size else 0
    if candidates.shape[1] == 0:
        return []
    if n0 == 0:
        stacked = candidates
    else:
        stacked = np.concatenate([span, candidates], axis=1)
    _, pivots, _ = rref(stacked, p)
    return [c - n0 for c in pivots if c >= n0]


def hstack(blocks, rows, p):
    mats = [b for b in blocks if b.shape[1] > 0]
    if not mats:
        return zeros(rows, 0, p)
    return np.concatenate(mats, axis=1)
