"""Standard-graded polynomial rings and degree-truncated quotients.

A ``PolyRing`` is S = F_p[x_1..x_n] with every variable in degree 1 and an
explicit degree bound D.  Its monomials are enumerated once, as the
exponent rows of `exponents(d)` in lex order, and `monomial_positions` is
the one map back from exponents to coordinates, by the lex rank formula;
a polynomial enters as values written at those positions.

A ``TruncatedQuotientRing`` R = S/I carries, for each degree d <= D, a
chosen monomial basis of R_d (the non-pivot coordinates of the ideal
component inside S_d) and normal-form matrices; multiplication of basis
elements reduces to normal forms of products of monomials.  Normal forms
come from the RREF of I_d in each degree, not Groebner bases, so
arbitrary homogeneous ideals are supported.

Each degree starts from the one below, as in the symbolic preprocessing of
Faugere's F4 (J. Pure Appl. Algebra 1999): lex is multiplicative, so x_k
times a row of RREF(I_{d-1}) leads at x_k times its lead.  One such row per
lead, stacked over the whole Macaulay matrix of I_d, goes to
`linalg.rref_stack`; what the rows leave over holds the new pivots, so no
pivot can be missed, and the RREF (hence every table) is unchanged.

Multiplication tables are stacked: `mult_maps(e, a)` is the
(dim R_e, dim R_{a+e}, dim R_a) array whose j-th slice is multiplication
by the j-th basis monomial of R_e, gathered from the normal forms of
R_{a+e} in one step and cached per (e, a).  `mult_map(e, j, a)` is its
j-th slice.  Callers that act by all of R_e reshape the stack into one
product instead of stacking per-monomial matrices.

One method, `_degree`, fills the tables: R_0, R_1, ... in order, up to
the first zero component or the bound D.  R is generated in degree 1, so
every component above a zero one is zero too: a degree above D reads 0
where the ring ends within D, and raises DegreeBoundError naming the
degree asked for where it does not, whatever was asked before.
"""

from itertools import combinations_with_replacement
from math import comb
from typing import NamedTuple

import numpy as np

from . import polynomials as poly
from .errors import DegreeBoundError, HomogeneityError, SyzkitError
from .linalg import _non_pivots, is_prime, rref_null_space, rref_stack, zeros

DEFAULT_DEGREE_BOUND = 12
MARGIN = 2  # ring degrees below the bound in which nothing new may appear
TOO_CLOSE = ("syzygy generator too close to the degree bound to certify "
             "completeness; raise the bound")


class DegreeWindow(NamedTuple):
    """Components on generators in degree `low` and up: read up to degree
    `top`, and a new generator in them certified up to `certified`.  The
    two are equal only over a ring that collapses within the bound, where
    every component above `top` is zero."""

    low: int
    top: int
    certified: int
    bound: int

    def certify(self, d):
        """Raise DegreeBoundError, naming the bound that would certify it,
        on a new generator in degree d above the certified part."""
        if d > self.certified:
            raise DegreeBoundError(d - self.low + MARGIN, self.bound, TOO_CLOSE, certify=True)


class PolyRing:
    """S = F_p[x_1..x_n], standard graded, truncated at degree_bound."""

    def __init__(self, char, var_names, degree_bound=DEFAULT_DEGREE_BOUND):
        if not (2 <= char < 2**31) or not is_prime(char):
            raise SyzkitError(f"characteristic must be a prime in [2, 2^31), got {char}")
        if degree_bound < 1:
            raise SyzkitError("degree bound must be >= 1")
        names = tuple(var_names)
        if not names:
            raise SyzkitError("a polynomial ring needs at least one variable")
        if len(set(names)) != len(names):
            raise SyzkitError(f"duplicate variable names in {names}")
        self.char = char
        self.vars = names
        self.nvars = len(names)
        self.degree_bound = degree_bound
        self._bases = {}

    def exponents(self, d):
        """All monomials of degree d in lexicographic order (x_1 highest),
        as an int64 array with one exponent row per monomial: the sorted
        variable indices i_1 <= ... <= i_d of x_{i_1} ... x_{i_d}, taken in
        increasing order, run through the monomials in lex order."""
        if d > self.degree_bound:
            raise DegreeBoundError(d, self.degree_bound, "monomial basis")
        if d < 0:
            return np.zeros((0, self.nvars), dtype=np.int64)
        if d not in self._bases:
            picks = list(combinations_with_replacement(range(self.nvars), d))
            exps = np.zeros((len(picks), self.nvars), dtype=np.int64)
            np.add.at(exps, (np.arange(len(picks))[:, None], np.array(picks, dtype=np.intp)), 1)
            self._bases[d] = exps
        return self._bases[d]

    def monomial_basis(self, d):
        """`exponents(d)` as a list of exponent tuples."""
        key = ("tuples", d)
        if key not in self._bases:
            self._bases[key] = list(map(tuple, self.exponents(d).tolist()))
        return self._bases[key]

    def dim(self, d):
        if d < 0:
            return 0
        return comb(self.nvars + d - 1, d)

    def monomial_positions(self, exps, d):
        """Rows in exponents(d) of degree-d exponent vectors (last
        axis of exps): lex order puts C(n-k-2+s, s-1) monomials before e that
        agree with it before x_k and exceed it at x_k, s = degree after x_k.
        The table of these counts is built once per degree asked for: one
        up to the degree bound overflows int64 over many variables."""
        n = self.nvars
        key = ("lex", d)
        if key not in self._bases:
            self._bases[key] = np.array(
                [[comb(n - k - 2 + s, s - 1) if s else 0 for s in range(d + 1)]
                 for k in range(n - 1)], dtype=np.int64).reshape(n - 1, d + 1)
        left = d - np.cumsum(exps, axis=-1)[..., :-1]
        return self._bases[key][np.arange(n - 1), left].sum(axis=-1)

    def parse(self, text):
        return poly.parse_polynomial(text, self.vars, self.char)

    def format(self, f):
        return poly.format_polynomial(f, self.vars)

    def signature(self):
        return ("poly", self.char, self.vars, self.degree_bound)


class TruncatedQuotientRing:
    """Graded quotient R = S/I with per-degree bases and multiplication."""

    def __init__(self, base, ideal_gens):
        self.base = base
        self.char = base.char
        self.vars = base.vars
        self.degree_bound = base.degree_bound
        self.ideal_gens = list(ideal_gens)
        for k, g in enumerate(self.ideal_gens, 1):
            if not any(c % self.char for c in g.values()):
                raise SyzkitError(f"relation {k} is zero mod {self.char}")
            e = poly.poly_degree(g)
            if e == 0:
                raise SyzkitError(f"relation {k} is a nonzero constant: a unit")
            if e > self.degree_bound:  # no I_d with d <= D would read it
                raise DegreeBoundError(e, self.degree_bound, f"relation {k}")
        self._degree_data = []  # (basis indices, normal forms) of R_0, R_1, ..., all nonzero
        self._first_zero = None
        self._mult_cache = {}
        self._dim_cache = {}
        self.offsets_memo = {}  # freemod.component_offsets, on (gen_degrees, d)

    # -- per-degree structure ------------------------------------------------

    def _degree(self, d):
        """(basis indices, normal-form matrix) of R_d, or None where R_d = 0.

        The one filler of the tables: R_0, R_1, ... up to d, each from the
        one below, stopping at the first zero component (`_first_zero`).
        DegreeBoundError, naming d, only when the fill passes D before the
        ring ends."""
        data = self._degree_data
        while len(data) <= d and self._first_zero is None:
            e = len(data)
            if e > self.degree_bound:
                raise DegreeBoundError(d, self.degree_bound, "ring component")
            r, pivots, _ = rref_stack(self._shifted_rows(e), self.ideal_component(e).T, self.char)
            free = _non_pivots(r.shape[1], pivots)
            if not free:
                self._first_zero = e
                break
            basis = rref_null_space(r, pivots, free, r.shape[1], self.char)
            data.append((free, np.ascontiguousarray(basis.T)))
            del r, basis  # not held while the next degree is eliminated
        return data[d] if 0 <= d < len(data) else None

    def _shifted_rows(self, d):
        """One row x_k * b of I_d for each distinct lead x_k * lead(b), b
        running over the rows of RREF(I_{d-1}): b is 1 at its lead, the
        negated normal form of that lead on the basis of R_{d-1}, and 0
        elsewhere.  Lex is multiplicative, so x_k * b leads at x_k * lead(b)."""
        below = self._degree(d - 1)
        if below is None or len(below[0]) == self.base.dim(d - 1):  # d = 0 or I_{d-1} = 0
            return zeros(0, self.base.dim(d))
        free, nf = below
        pivots = np.setdiff1d(np.arange(nf.shape[1]), free, assume_unique=True)
        shift = np.eye(self.base.nvars, dtype=np.int64)[:, None]
        at = self.base.monomial_positions(self.base.exponents(d - 1) + shift, d)  # x_k m
        leads, first = np.unique(at[:, pivots], return_index=True)
        k, i = np.divmod(first, len(pivots))  # x_k times the row of the i-th pivot
        rows = zeros(len(leads), self.base.dim(d))
        each = np.arange(len(leads))
        rows[each[:, None], at[k[:, None], free]] = -nf[:, pivots[i]].T % self.char
        rows[each, leads] = 1
        return rows

    def ideal_component(self, d):
        """Matrix whose columns m * g span I_d inside the monomial basis of
        S_d: generator-major, the monomials m of degree d - deg g in order."""
        if d > self.degree_bound:
            raise DegreeBoundError(d, self.degree_bound, "ideal component")
        blocks = [zeros(self.base.dim(d), 0)]
        for g in self.ideal_gens:
            e = poly.poly_degree(g)
            if e > d:
                continue
            terms = np.array(list(g), dtype=np.int64)
            coeffs = np.array(list(g.values()), dtype=np.int64) % self.char
            shifts = self.base.exponents(d - e)
            at = self.base.monomial_positions(terms[:, None] + shifts, d)  # term x shift
            block = zeros(self.base.dim(d), len(shifts))
            block[at, np.arange(len(shifts))] = coeffs[:, None]
            blocks.append(block)
        return np.concatenate(blocks, axis=1)

    def dim(self, d):
        out = self._dim_cache.get(d)
        if out is None:
            data = self._degree(d)
            out = self._dim_cache[d] = len(data[0]) if data else 0
        return out

    def basis_monomials(self, d):
        """Exponent tuples whose classes form the chosen basis of R_d."""
        data = self._degree(d)
        if data is None:
            return []
        mons = self.base.monomial_basis(d)
        return [mons[i] for i in data[0]]

    def nf_matrix(self, d):
        """Normal form S_d -> R_d in coordinates (dim R_d x dim S_d)."""
        data = self._degree(d)
        if data is None:
            return zeros(0, self.base.dim(d) if d <= self.degree_bound else 0)
        return data[1]

    def hilbert_function(self, dmax):
        return [self.dim(d) for d in range(dmax + 1)]

    def is_artinian_within_bound(self):
        """True when some R_d with d <= degree_bound is zero (hence all above)."""
        self._degree(self.degree_bound)
        return self._first_zero is not None

    def degree_window(self, low, high):
        """The one rule for how far components built on generators in
        degrees low..high are read and where a new generator is certified,
        counted in ring degrees e = d - low so that a module and its shifts
        read the same ring components: d is read while e <= D, and a new
        generator is certified while e <= D - MARGIN.  A ring that collapses
        within D (R_c = 0) is known in every degree, and such components
        vanish above high + c - 1: that is the window, with no margin."""
        top = self.degree_bound + low
        if not self.is_artinian_within_bound():
            return DegreeWindow(low, top, top - MARGIN, self.degree_bound)
        top = high + self._first_zero - 1
        return DegreeWindow(low, top, top, self.degree_bound)

    # -- multiplication -------------------------------------------------------

    def mult_maps(self, e, a):
        """Multiplication by every basis monomial of R_e on R_a, stacked:
        the (dim R_e, dim R_{a+e}, dim R_a) array whose j-th slice is the
        matrix of the j-th monomial.  One gather from the normal forms of
        R_{a+e} at the positions of all products of monomials."""
        key = (e, a)
        stack = self._mult_cache.get(key)
        if stack is None:
            de, dt, da = self.dim(e), self.dim(a + e), self.dim(a)
            if not (de and dt and da):
                stack = np.zeros((de, dt, da), dtype=np.int64)
            else:
                mono_e = self.base.exponents(e)[self._degree(e)[0]]
                mono_a = self.base.exponents(a)[self._degree(a)[0]]
                at = self.base.monomial_positions(mono_e[:, None] + mono_a[None], a + e)
                # entry (j, t, i) is nf[t, at[j, i]]: one gather, in stack order
                stack = self.nf_matrix(a + e)[np.arange(dt)[:, None], at[:, None]]
            self._mult_cache[key] = stack
        return stack

    def mult_map(self, e, j, a):
        """Matrix of multiplication by the j-th basis monomial of R_e on R_a."""
        return self.mult_maps(e, a)[j]

    def vector_to_poly(self, vec, d):
        f = {}
        for i, m in enumerate(self.basis_monomials(d)):
            c = int(vec[i]) % self.char
            if c:
                f[m] = c
        return f

    def signature(self):
        gens = tuple(sorted(tuple(sorted(g.items())) for g in self.ideal_gens))
        return ("quot", self.char, self.vars, self.degree_bound, gens)

    def same_ring(self, other):
        return self.signature() == other.signature()


def ring_from_strings(char, var_names, relation_strings, degree_bound=DEFAULT_DEGREE_BOUND):
    base = PolyRing(char, var_names, degree_bound)
    gens = [base.parse(s) for s in relation_strings]
    for s, g in zip(relation_strings, gens):
        if not poly.poly_is_homogeneous(g):
            raise HomogeneityError(f"relation {s!r} is not homogeneous")
    return TruncatedQuotientRing(base, gens)


def algebra_tensor(r1, r2):
    """Tensor product over the prime field: disjoint variables, both ideals."""
    if r1.char != r2.char:
        raise SyzkitError(f"characteristic mismatch: {r1.char} vs {r2.char}")
    overlap = set(r1.vars) & set(r2.vars)
    if overlap:
        raise SyzkitError(f"variable names collide in tensor product: {sorted(overlap)}")
    bound = min(r1.degree_bound, r2.degree_bound)
    base = PolyRing(r1.char, r1.vars + r2.vars, bound)
    n1, n2 = len(r1.vars), len(r2.vars)
    gens = [{m + (0,) * n2: c for m, c in g.items()} for g in r1.ideal_gens]
    gens += [{(0,) * n1 + m: c for m, c in g.items()} for g in r2.ideal_gens]
    return TruncatedQuotientRing(base, gens)

