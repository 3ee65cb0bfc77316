"""Minimal free resolutions, Betti numbers, complexity, and depth.

A `FreeResolution` is a `complexes.FreeComplex` plus its augmentation onto
the module and the step where it terminated, so d o d, minimality and the
periodicity certificate run on the resolution itself.  The augmentation
`cover` is a `freemod.FreeMap` from F_0 onto the module's presented
generators, whose column b lifts M's b-th minimal generator: step 1 reads
its matrices through M's projection, `verify_complex` checks that it kills
d_1 as a `modules.ModuleMap`, and the t = 1 pushout moves its records.
F_i is known when i is within the window or the resolution terminated;
readers that need F_i call `require`, which raises WindowError otherwise.

The engine works degree by degree, and `kernel_generators` is its one
primitive: given the degree-d matrices of a map out of a free module, it
computes exact kernels and picks minimal generators of the kernel as the
standard-coordinate complement of (irrelevant ideal) * kernel,
degree-ascending.  `resolve` calls it once per syzygy step (first on the
free cover of the module, then on each new differential), and
`homological.tor_as_module` calls it to find the relations of a Tor
module.  By minimality of the previous step the kernel lies in m*F, so
components with (m*F)_d = 0 are skipped outright.

The step works in free coordinates.  The kernel basis ker_d has the
identity on its free (non-pivot) rows, so v -> v[free] is injective on
ker_d and keeps every linear dependency among kernel vectors.  Since
d o d = 0 the next differential maps into ker_d, and on the free rows its
degree-d matrix is [A | E], as in La Scala & Stillman (J. Symb. Comp.
1998): A holds the columns of the generators below d, which span
(m * ker)_d = R_1 * ker_{d-1} because R is generated in degree 1, and E
the identity columns of the new generators.  A is built on the free rows
alone (`FreeMap.induced(d, rows=free)`), never as a whole component of the
map.  So one elimination of A per degree serves two steps, and it need
only find A's pivots, with the last nonzero row of each column as its
pivot row (`linalg._pivot_columns`).  The same A comes back, in later
degrees where the degree tables of R repeat and in later steps once a
resolution over a hypersurface turns periodic (Eisenbud, Trans. AMS 1980),
so `resolve` keeps A's free columns and the rows no pivot used by A's
exact content, and eliminates each distinct block once.  Those rows are
the new generators: the columns of the identity that extend A, the same
columns that extending inside the whole component would pick.  The next
step receives A's free columns in a `Handover`: E is independent of A, so
they are the free columns of [A | E], and its null space is A's with zero
rows for E.  It still builds its own matrix, on those rows only, and
checks that it is [A | E] exactly, its nonzeros A's packed entries and
E's 1s, and then that by exactness it has full rank there (degrees the
previous step did not scan reduce the whole matrix).  It needs kernel
vectors only for the generators it picks, so only in those degrees is a
handed A reduced to its RREF, and each vector is built from its own column
of the reduced rows (`linalg.rref_null_space`), as a whole elimination of
[A | E] would give it.

Completeness of a kernel is certified, not assumed, by the ring's degree
window (`rings.TruncatedQuotientRing.degree_window`), counted in ring
degrees above the module's lowest generator, so a module and its shifts
get the same Betti numbers, shifted, or the same refusal:

* over a ring that collapses within the degree bound (R_d = 0 for some
  d <= D) the kernel vanishes above max generator degree + top degree of
  R, and all of that is known, so there is no margin;
* otherwise a new generator within 2 ring degrees of the bound raises
  DegreeBoundError instead of silently truncating Betti numbers.

Depth is n - pd_S(M) over S = F_p[x_1..x_n] (Auslander-Buchsbaum), and
`depth` reads pd_S from the Koszul homology of M on the variables acting
through R: beta^S_{i,d}(M) = dim H_i(x; M)_d, the homology of K(x; R) (x) M
with K_{i,d} = wedge^i F_p^n (x) M_{d-i} (Bruns & Herzog 1.6); K(x; R) is
a `FreeComplex`, so `freemod.FreeMap.induced` over M builds its matrices.
It needs only the M_d and their action matrices, no tables of S, and
reads them in the same degree window as `resolve`.

A periodic tail is certified, not guessed: `detect_resolution_periodicity`
hands the resolution to `chainsolve.certify_periodicity` with the onset
free, and `complexity_of_module` reports `exact-periodic` only with that
certificate.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import freemod
from .chainsolve import certify_periodicity
from .complexes import FreeComplex, coker_module
from .errors import SyzkitError, WindowError
from .linalg import _non_pivots, _pivot_columns, matmul, pack, rref, rref_null_space, unpack, zeros
from .modules import ModuleMap, free_module


class FreeResolution(FreeComplex):
    """A minimal free resolution of `module`, with its augmentation `cover`."""

    def __init__(self, ring, module, gens, diffs, cover, terminated_at, low):
        super().__init__(ring, gens, diffs)
        self.module = module
        self.low = low            # the degree window counts ring degrees from here
        self.cover = cover        # the FreeMap F_0 -> M's presented generators
        self.terminated_at = terminated_at  # first i with F_i = 0, or None

    def betti(self):
        return self.ranks()

    def require(self, i, what):
        """Raise WindowError unless F_i is known (within the window, or terminated)."""
        if i > self.window and self.terminated_at is None:
            raise WindowError(f"{what} needs the resolution out to step {i}")

    def is_minimal(self):
        """Its own entry point, so `bench/tracer.py` counts it under `verify`."""
        return FreeComplex.is_minimal(self)

    def verify_complex(self):
        """cover o d_1 = 0, as the cover's map onto M from the cokernel of
        d_1, and d_i o d_{i+1} = 0, exactly."""
        return ModuleMap(coker_module(self, 0), self.module, self.cover).verify() and self.verify()


@dataclass
class Handover:
    """What syzygy step i hands step i+1 in degree d.  `rows` are the free
    rows of ker_d, on which step i+1's matrix is [A | E]: A on the
    generators below d, kept by its nonzero entries (`linalg.pack`), and E
    the identity columns of the new ones, with their 1 on `new`.  `free`
    are A's free columns, which are also [A | E]'s."""

    rows: list
    block: tuple
    new: list
    free: list

    def check(self, mat, d):
        """Raise unless mat, on `rows`, is [A | E]: A's packed entries, E's 1s and no other."""
        (height, width), at, values = self.block
        new = len(self.new)
        if not (mat.shape == (height, width + new) and np.count_nonzero(mat) == len(at) + new
                and (mat[np.divmod(at, width)] == values).all()
                and (mat[self.new, range(width, width + new)] == 1).all()):
            raise SyzkitError(f"internal error: next matrix differs from the handed block "
                              f"in degree {d}")


def _kernel(matrix_at, handed, src_dim, d, p):
    """(free rows of ker_d, (RREF, pivot columns) of the degree-d matrix of
    matrix_at), or (the handed free columns, None) on the rows of the
    previous step's Handover; a helper, so that the matrix is dropped
    before A is built."""
    mat = matrix_at(d) if handed is None else matrix_at(d, rows=handed.rows)
    if mat.shape[1] != src_dim:
        raise SyzkitError(f"internal error: {mat.shape[1]} columns in degree {d}, "
                          f"not {src_dim}")
    if handed is None:
        r, pivots, _ = rref(mat, p)
        return _non_pivots(src_dim, pivots), (r, pivots)
    handed.check(mat, d)
    if src_dim - len(handed.free) != len(handed.rows):
        raise SyzkitError(f"internal error: syzygy step is not exact in degree {d}")
    return handed.free, None


def kernel_generators(ring, src_degs, matrix_at, low, rows=None, eliminated=None):
    """Minimal generators of the kernel of a minimal-cover map out of the
    free module src_degs, degree-ascending.

    matrix_at(d) must return the induced component matrix; low is the
    least generator degree its components are built from (the module's,
    for a resolution), which anchors the degree window.  rows, when given,
    maps d to the previous step's `Handover`; eliminated, when given, maps
    the content of a block A (shape and the bytes of its `linalg.pack`
    indices and values, so a hit is exact) to A's free columns and the rows
    no pivot used, and is shared by the steps of one resolution.  Returns
    (the next map, from the generators into src_degs, or None when there
    are none; the top degree scanned; this step's `Handover` by degree).
    Each degree's new generators join the map as the records of their
    kernel vectors.
    """
    p = ring.char
    window = ring.degree_window(low, max(src_degs))
    rows = rows or {}
    eliminated = {} if eliminated is None else eliminated
    handover, recs, degs = {}, [], []
    nxt = None  # the next map, on the generators found so far
    for d in range(min(src_degs), window.top + 1):
        src_dim = freemod.component_dim(ring, src_degs, d)
        # minimality: kernel sits inside m * F, so skip degrees where that is 0
        if not src_dim or not any(d - g >= 1 and ring.dim(d - g) > 0 for g in src_degs):
            continue
        free, echelon = _kernel(matrix_at, rows.get(d), src_dim, d, p)
        # A spans (m * ker)_d = R_1 * ker_{d-1} on the free rows, where
        # v -> v[free] is injective on ker_d (the identity there)
        a = zeros(len(free), 0) if nxt is None else nxt.induced(d, rows=free)
        block = pack(a)
        # blocks repeat, in later degrees and in later steps: one elimination
        # each gives A's free columns and the rows no pivot used, the new ones
        key = (block[0], block[1].tobytes(), block[2].tobytes())
        if key not in eliminated:
            pivots, left = _pivot_columns(a, p)
            eliminated[key] = _non_pivots(a.shape[1], pivots), left
        a_free, chosen = eliminated[key]
        if chosen:
            window.certify(d)
            # a handed block is reduced only where generators are picked; its
            # RREF and the vectors are temporaries, gone once from_dense is done
            new = freemod.FreeMap.from_dense(ring, [d] * len(chosen), src_degs, rref_null_space(
                *(echelon or rref(unpack(rows[d].block), p)[:2]), [free[k] for k in chosen],
                src_dim, p).T)
            recs += new.records(len(degs))
            degs += new.source_degrees
            nxt = freemod.FreeMap(ring, degs, src_degs, recs)
        handover[d] = Handover(free, block, chosen, a_free)
        echelon = a = None  # before the next degree's matrices are built
    return nxt, window.top, handover


def resolve(module, n_max):
    """Minimal free resolution of a nonzero module out to step n_max."""
    if n_max < 0:
        raise WindowError("resolution window must be >= 0")
    ring = module.ring
    mingens = module.minimal_generators()
    if not mingens:
        raise SyzkitError("cannot resolve the zero module")
    src_degs = tuple(d for d, _ in mingens)
    cover = freemod.FreeMap.from_dense(ring, src_degs, module.gen_degrees,
                                       [module.lift_element(d, v) for d, v in mingens])
    gens = [src_degs]
    diffs = [None]
    terminated_at = None
    matrix_at = lambda d: (matmul(module.proj(d), cover.induced(d), ring.char) if module.dim(d)
                           else zeros(0, freemod.component_dim(ring, cover.source_degrees, d)))
    low = module.min_degree()  # M_d is read through every presented generator
    rows = None  # the previous step's Handover, by degree
    eliminated = {}  # A's free columns by A's content, over the whole resolution
    for i in range(1, n_max + 1):
        dmap = None
        if terminated_at is None:
            dmap, _, rows = kernel_generators(ring, src_degs, matrix_at, low, rows, eliminated)
            if dmap is None:
                terminated_at = i
        if dmap is None:
            gens.append(())
            diffs.append(freemod.FreeMap.zero(ring, (), gens[i - 1]))
            continue
        src_degs = dmap.source_degrees
        gens.append(src_degs)
        diffs.append(dmap)
        matrix_at = dmap.induced

    res = FreeResolution(ring, module, gens, diffs, cover, terminated_at, low)
    if not res.verify_complex():
        raise SyzkitError("internal error: resolution differentials do not compose to zero")
    if not res.is_minimal():
        raise SyzkitError("internal error: resolution is not minimal")
    return res


def syzygy(res, t):
    """The t-th syzygy module presented by the resolution (t=0 gives the module)."""
    if t < 0:
        raise SyzkitError(f"syzygy {t} needs an index >= 0")
    if t == 0:
        return res.module
    res.require(t + 1, f"syzygy {t}")
    return coker_module(res, t)


# -- complexity ---------------------------------------------------------------


@dataclass
class ComplexityEstimate:
    value: float                  # integer, or math.inf
    status: str                   # exact-finite-pd | exact-periodic | estimated
    window: int
    detail: str = ""

    def __str__(self):
        v = "inf" if self.value == math.inf else str(int(self.value))
        return f"cx {v} ({self.status})"


MAX_POLYNOMIAL_DEGREE_FIT = 6


def _require_complexity_window(window):
    if window < 6:
        raise WindowError("complexity estimation needs a window of at least 6")


def estimate_complexity(betti, periodicity_hint=None, window=None):
    """Complexity of a Betti sequence over the computed window.

    Finite projective dimension and detected periodicity are exact; the
    polynomial growth fit (calibrated on the first half of the window,
    checked on the second) is an estimate only.
    """
    if window is None:
        window = len(betti) - 1
    _require_complexity_window(window)
    if len(betti) < window + 1:
        raise WindowError(f"complexity estimation over window {window} needs {window + 1} "
                          f"Betti numbers, got {len(betti)}")
    seq = list(betti[: window + 1])
    # trailing zeros mean the (minimal) tail has died; internal zeros alone do
    # not, since minimal models of complexes may start above degree 0
    if seq[-1] == 0:
        return ComplexityEstimate(0, "exact-finite-pd", window)
    if periodicity_hint is not None:
        return ComplexityEstimate(
            1, "exact-periodic", window, detail=f"period {periodicity_hint}"
        )
    half = max(2, (window + 1) // 2)
    for t in range(1, MAX_POLYNOMIAL_DEGREE_FIT + 1):
        a = max(seq[i] / max(i, 1) ** (t - 1) for i in range(1, half + 1))
        if all(seq[i] <= a * i ** (t - 1) + 1e-9 for i in range(half + 1, window + 1)):
            return ComplexityEstimate(t, "estimated", window, detail=f"bound {a:.3g}*n^{t-1}")
    return ComplexityEstimate(math.inf, "estimated", window)


def detect_resolution_periodicity(res):
    """Least period q >= 1, and least onset for it, with a twisted chain
    isomorphism of the resolution tail [onset+q, window] onto itself; a
    PeriodicityCertificate, or None if none within the window."""
    if res.terminated_at is not None:
        return None
    return certify_periodicity(res, True)


def complexity_of_module(module, window=10):
    """Resolve and estimate complexity; returns (estimate, resolution)."""
    _require_complexity_window(window)
    res = resolve(module, window)
    cert = detect_resolution_periodicity(res)
    est = estimate_complexity(
        res.betti(), periodicity_hint=cert.period if cert else None, window=window
    )
    return est, res


# -- depth --------------------------------------------------------------------


@dataclass
class DepthReport:
    depth: int
    pd_ambient: int
    nvars: int
    degree_bound: int

    def __str__(self):
        return f"depth {self.depth} (pd_S = {self.pd_ambient}, n = {self.nvars})"


def depth(module):
    """Depth n - pd_S(M), with pd_S read from the Koszul homology of M.

    Step i reads beta_{i,d} for d from lo, the window's low and then the
    least degree of an (i-1)-st syzygy, to the top of the window; it raises
    DegreeBoundError on a syzygy above its certified part.  The window is
    counted in ring degrees above M's lowest generator, with a margin of 2
    unless the ring collapses within the bound, so M and its shifts get the
    same answer or the same refusal.  K(x; R) has the generators e_J,
    |J| = i, in degree i, and d e_J = sum_t (-1)^t x_{J_t} e_{J - J_t}.
    """
    if module.is_zero():
        raise SyzkitError("depth of the zero module is undefined")
    ring = module.ring
    n, bound = len(ring.vars), ring.degree_bound
    xs = ring.nf_matrix(1).T  # the variables, in the order of monomial_basis(1)
    wedge = [list(combinations(range(n), i)) for i in range(n + 1)]
    gens, diffs = [(i,) * len(js) for i, js in enumerate(wedge)], [None]
    for i in range(1, n + 1):
        placed = [(c, wedge[i - 1].index(J[:t] + J[t + 1:]), -xs[j] % ring.char if t % 2
                   else xs[j]) for c, J in enumerate(wedge[i]) for t, j in enumerate(J)]
        diffs.append(freemod.FreeMap(ring, gens[i], gens[i - 1],
                                     freemod.records_of(gens[i], gens[i - 1], placed)))
    # K_{i,d} vanishes above max generator degree + top degree of R + i
    window = ring.degree_window(module.min_degree(), max(module.gen_degrees) + n)
    koszul = FreeComplex(ring, gens, diffs).homology(module)
    pd, lo = 0, window.low
    for i in range(1, n + 1):
        found = []
        for d in range(lo, window.top + 1):
            if koszul.dim(i, d):
                window.certify(d)
                found.append(d)
        if not found:
            break
        pd, lo = i, found[0]
    return DepthReport(n - pd, pd, n, bound)


def depth_of_ring(ring):
    """Depth of R as a module over its polynomial ring.

    Reports stand in for dim A under the Cohen-Macaulay assumption, which
    is recorded by callers, never verified here.
    """
    return depth(free_module(ring))
