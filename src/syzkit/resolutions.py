"""Minimal free resolutions, Betti numbers, complexity, and depth.

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
ker_d and keeps every linear dependency among kernel vectors.  The span of
m * ker_{d-1} is therefore built on the free rows only, one product per
generator block of `ring.mult_map` (multiplication by a variable acts
blockwise on a free module), and the generators are the columns of the
identity that extend it; they are the same columns that extending inside
the whole component would pick.

Completeness of a kernel is certified, not assumed:

* over a ring that collapses within the degree bound (R_d = 0 for some
  d <= D) the kernel vanishes above max generator degree + top degree of
  R, so everything is visible if that bound is <= D;
* otherwise new generators appearing within `margin` of the bound raise
  DegreeBoundError instead of silently truncating Betti numbers.

A periodic tail is certified, not guessed: `detect_resolution_periodicity`
hands the resolution to `chainsolve.certify_periodicity` with the onset
free, and `complexity_of_module` reports `exact-periodic` only with that
certificate.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import freemod
from .chainsolve import certify_periodicity
from .complexes import resolution_complex
from .errors import DegreeBoundError, SyzkitError, WindowError
from .linalg import _null_space, extend_basis, identity, matmul, matvec, zeros
from .modules import GradedModule, generator_matrix, lift_presentation

DEFAULT_MARGIN = 2


class FreeResolution:
    def __init__(self, ring, module, gens, diffs, cover, window, terminated_at):
        self.ring = ring
        self.module = module
        self.gens = gens          # gens[i]: tuple of generator degrees of F_i
        self.diffs = diffs        # diffs[i]: FreeMap F_i -> F_{i-1}, for i >= 1
        self.cover = cover        # list of (degree, vector in M coords) for F_0
        self.window = window
        self.terminated_at = terminated_at  # first i with F_i = 0, or None

    def betti(self):
        return [len(g) for g in self.gens]

    def proj_dim(self):
        """Projective dimension when the resolution terminated, else None."""
        if self.terminated_at is None:
            return None
        return self.terminated_at - 1

    def is_minimal(self):
        return resolution_complex(self).is_minimal()

    def verify_complex(self):
        """cover o d_1 = 0 and d_i o d_{i+1} = 0, exactly."""
        if len(self.diffs) > 1:
            d1 = self.diffs[1]
            for g, col in zip(d1.source_degrees, d1.columns):
                cover_at_g = generator_matrix(self.module, self.cover, g)
                if matvec(cover_at_g, col, self.ring.char).any():
                    return False
        return resolution_complex(self).verify()


def _mult_span_rows(ring, src_degs, d, prev, rows):
    """Rows `rows` (ascending) of the span of R_1 * prev in the degree-d
    component of the free module src_degs; prev lives in degree d - 1.

    A variable acts on each generator's block by ring.mult_map, so each
    generator needs one product: its variable multiplications, stacked and
    cut to the wanted rows, times its block of prev.  Columns are ordered
    variable-major.
    """
    p, nvars, r = ring.char, ring.dim(1), prev.shape[1]
    rows = np.asarray(rows, dtype=np.int64)
    out = zeros(len(rows), nvars * r, p)
    to = freemod.component_offsets(ring, src_degs, d)
    so = freemod.component_offsets(ring, src_degs, d - 1)
    for b, g in enumerate(src_degs):
        lo, hi = np.searchsorted(rows, (to[b], to[b + 1]))
        if lo == hi or so[b] == so[b + 1]:
            continue
        local = rows[lo:hi] - to[b]
        stacked = np.concatenate([ring.mult_map(1, j, d - 1 - g)[local] for j in range(nvars)])
        prod = matmul(stacked, prev[so[b]:so[b + 1]], p)
        out[lo:hi] = prod.reshape(nvars, hi - lo, r).transpose(1, 0, 2).reshape(hi - lo, -1)
    return out


def kernel_generators(ring, src_degs, matrix_at, margin):
    """Minimal generators of the kernel of a minimal-cover map out of the
    free module src_degs, degree-ascending.

    matrix_at(d) must return the induced component matrix.  Returns
    (list of (degree, vector), top degree scanned).  Negative generator
    degrees (twisted complexes) pull the usable ceiling down: the degree-d
    component reads ring data at d - g.
    """
    lo = min(src_degs)
    if ring.is_artinian_within_bound():
        # every ring component above the collapse degree is known to vanish,
        # so the kernel window is complete whatever the degree bound
        hi = max(src_degs) + ring.top_degree()
        certified_to = hi
    else:
        hi = ring.degree_bound + min(0, lo)
        certified_to = hi - margin
    gens = []
    prev = None  # kernel basis one degree down, when nonzero
    for d in range(lo, hi + 1):
        kd = None
        src_dim = freemod.component_dim(ring, src_degs, d)
        # minimality: kernel sits inside m * F, so skip degrees where that is 0
        if src_dim and any(d - g >= 1 and ring.dim(d - g) > 0 for g in src_degs):
            kd, free = _null_space(matrix_at(d), ring.char)
        if kd is None or not kd.shape[1]:
            prev = None
            continue
        # v -> v[free] is injective on ker_d (kd[free] = I), so choosing the
        # complement of m * ker_{d-1} on the free rows picks the same columns
        if prev is None:  # nothing below to extend: every kernel vector is new
            chosen = range(len(free))
        else:
            span = _mult_span_rows(ring, src_degs, d, prev, free)
            chosen = extend_basis(span, identity(len(free), ring.char), ring.char)
        for idx in chosen:
            if d > certified_to:
                raise DegreeBoundError(
                    d + margin, ring.degree_bound,
                    "syzygy generator too close to the degree bound to certify "
                    "completeness; raise the bound",
                )
            gens.append((d, kd[:, idx]))
        prev = kd
    return gens, hi


def resolve(module, n_max, margin=DEFAULT_MARGIN, verify=True):
    """Minimal free resolution of a nonzero module out to step n_max."""
    if n_max < 0:
        raise WindowError("resolution window must be >= 0")
    ring = module.ring
    cover = module.minimal_generators()
    if not cover:
        raise SyzkitError("cannot resolve the zero module")
    src_degs = tuple(d for d, _ in cover)
    gens = [src_degs]
    diffs = [None]
    terminated_at = None
    matrix_at = partial(generator_matrix, module, cover)
    for i in range(1, n_max + 1):
        newgens = []
        if terminated_at is None:
            newgens, _ = kernel_generators(ring, src_degs, matrix_at, margin)
            if not newgens:
                terminated_at = i
        if not newgens:
            gens.append(())
            diffs.append(freemod.FreeMap.zero(ring, (), gens[i - 1]))
            continue
        degs = tuple(d for d, _ in newgens)
        dmap = freemod.FreeMap(ring, degs, src_degs, [v for _, v in newgens])
        gens.append(degs)
        diffs.append(dmap)
        src_degs = degs
        matrix_at = dmap.induced

    res = FreeResolution(ring, module, gens, diffs, list(cover), n_max, terminated_at)
    if verify:
        if not res.verify_complex():
            raise SyzkitError("internal error: resolution differentials do not compose to zero")
        if not res.is_minimal():
            raise SyzkitError("internal error: resolution is not minimal")
    return res


def syzygy(res, t):
    """The t-th syzygy module presented by the resolution (t=0 gives the module)."""
    if t == 0:
        return res.module
    if t + 1 > res.window and res.terminated_at is None:
        raise WindowError(f"syzygy {t} needs the resolution out to step {t + 1}")
    if t >= len(res.gens) or not res.gens[t]:
        return GradedModule(res.ring, (), [])
    rels = []
    if t + 1 < len(res.diffs) and res.diffs[t + 1] is not None:
        d = res.diffs[t + 1]
        rels = [(g + d.twist, col.copy()) for g, col in zip(d.source_degrees, d.columns)]
    return GradedModule(res.ring, res.gens[t], rels)


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


def estimate_complexity(betti, periodicity_hint=None, window=None):
    """Complexity of a Betti sequence over the computed window.

    Finite projective dimension and detected periodicity are exact; the
    polynomial growth fit (calibrated on the first half of the window,
    checked on the second) is an estimate only.
    """
    if window is None:
        window = len(betti) - 1
    if window < 6:
        raise WindowError("complexity estimation needs a window of at least 6")
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
    return certify_periodicity(resolution_complex(res), True)


def complexity_of_module(module, window=10, margin=DEFAULT_MARGIN, res=None):
    """Resolve and estimate complexity; returns (estimate, resolution)."""
    if res is None or res.window < window:
        res = resolve(module, window, margin)
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
    method: str = "depth = #vars - projective dimension over the ambient polynomial ring"

    def __str__(self):
        return f"depth {self.depth} (pd_S = {self.pd_ambient}, n = {self.nvars})"


def depth(module, margin=DEFAULT_MARGIN):
    """Depth via the Auslander-Buchsbaum identity over the ambient ring."""
    if module.is_zero():
        raise SyzkitError("depth of the zero module is undefined")
    lifted = lift_presentation(module)
    n = len(module.ring.vars)
    res = resolve(lifted, n + 1, margin)
    if res.terminated_at is None:
        raise DegreeBoundError(
            module.ring.degree_bound + 1, module.ring.degree_bound,
            "resolution over the polynomial ring did not terminate within "
            "the expected number of steps; raise the degree bound",
        )
    pd = res.proj_dim()
    return DepthReport(n - pd, pd, n, module.ring.degree_bound)


def depth_of_ring(ring, margin=DEFAULT_MARGIN):
    """Depth of R as a module over its polynomial ring.

    Reports stand in for dim A under the Cohen-Macaulay assumption, which
    is recorded by callers, never verified here.
    """
    from .modules import free_module

    return depth(free_module(ring), margin)
