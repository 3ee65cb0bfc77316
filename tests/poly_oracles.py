"""Per-monomial references for the ring's coordinates: a recursive
enumeration of the monomials of a degree, their coordinates looked up in
a dict, and normal forms taken one polynomial at a time.  The library
enumerates monomials as exponent rows (`PolyRing.exponents`), maps them
back by the lex rank formula (`PolyRing.monomial_positions`) and
normal-forms polynomials a whole degree at a time
(`FreeMap.from_poly_matrix`); these are the independent checks."""

from functools import lru_cache
from math import comb

import numpy as np

from syzkit.errors import HomogeneityError
from syzkit.linalg import matmul


def monomials_of_degree(nvars, d):
    """All degree-d exponent tuples in lexicographic order (x1 highest)."""
    if nvars == 0:
        return [()] if d == 0 else []
    out = []

    def rec(prefix, remaining, pos):
        if pos == nvars - 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, pos + 1)

    rec((), d, 0)
    assert len(out) == comb(nvars + d - 1, d), (nvars, d)
    return out


@lru_cache(maxsize=None)
def _index(nvars, d):
    return {m: i for i, m in enumerate(monomials_of_degree(nvars, d))}


def monomial_index(base, d):
    """Exponent tuple -> coordinate in the degree-d monomial basis of the
    polynomial ring `base`, from the recursive enumeration."""
    return _index(base.nvars, d)


def poly_vector(base, f, d):
    """Coordinate vector of a homogeneous polynomial of degree d over the
    monomials of `base`, one dict lookup per term."""
    vec = np.zeros(base.dim(d), dtype=np.int64)
    idx = monomial_index(base, d)
    for m, c in f.items():
        if sum(m) != d:
            raise HomogeneityError("polynomial has terms outside requested degree")
        vec[idx[m]] = c % base.char
    return vec


def normal_form(ring, f, d):
    """Coordinates of the class of f, homogeneous of degree d (any degree
    for the zero polynomial), in R_d: nf_matrix(d) times its vector."""
    return matmul(ring.nf_matrix(d), poly_vector(ring.base, f, d).reshape(-1, 1),
                  ring.char)[:, 0]
