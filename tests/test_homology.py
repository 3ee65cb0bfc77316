"""Tor, Ext, depth and complex homology from `modules.Homology`, against the
separate computations they replaced, kept here as references:

* the rank loop over the tensored differential for Tor's dimensions;
* `_HomologySpaces`, the Z/B subquotient of F_i (x) N with its own
  R-action, for Tor_i as a module;
* Ext classes as cocycles of the precomposition matrix modulo coboundaries;
* the Koszul rank loop for depth, and the rank formula for a complex's
  `FreeComplex.homology().dim`.
"""

import math
import random
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from syzkit import freemod
from syzkit.complexes import FreeComplex, coker_module
from syzkit.homological import _tensor_window, ext_basis, tor, tor_as_module
from syzkit.linalg import (
    extend_basis,
    identity,
    kernel_basis,
    matmul,
    quotient_projection,
    rank,
    solve_many,
    zeros,
)
from syzkit.modules import (
    GradedModule,
    free_module,
    generator_matrix,
    minimal_generators_in,
    module_from_presentation,
    residue_field,
)
from syzkit.resolutions import (
    depth,
    detect_resolution_periodicity,
    kernel_generators,
    resolve,
)
from syzkit.rings import PolyRing, TruncatedQuotientRing
from poly_oracles import normal_form
from test_depth import _form
from test_freemod import blocks
from test_modules import action_by_ring_vector
from test_rings import poly_mul

PRIMES = (2, 3, 32003, 2**31 - 1)

# -- the references ---------------------------------------------------------


def _tensor_component_dims(gens, n_mod, d):
    return [n_mod.dim(d - g) for g in gens]


def _tensor_differential(res, n_mod, i, d):
    src_gens = res.gen_degrees(i)
    sdims = _tensor_component_dims(src_gens, n_mod, d)
    if i <= 0 or not src_gens:
        return zeros(0, sum(sdims))
    dmap = res.diff(i)
    tgt_gens = dmap.target_degrees
    tdims = _tensor_component_dims(tgt_gens, n_mod, d)
    placed = {}
    for b, g in enumerate(src_gens):
        if sdims[b] == 0:
            continue
        for c, piece in blocks(dmap, b):
            if tdims[c]:
                placed[(c, b)] = action_by_ring_vector(n_mod, piece, g - tgt_gens[c], d - g)
    return freemod.block_matrix(tdims, sdims, placed)


def _reference_tor(res, n, window):
    """(dims, q, rigor) from the ranks of the tensored differentials."""
    p = res.ring.char
    degrees = _tensor_window(res, n, window)
    dims = []
    for i in range(window + 1):
        by_degree = {}
        for d in range(degrees.low, degrees.top + 1):
            sdim = sum(_tensor_component_dims(res.gen_degrees(i), n, d))
            if sdim == 0:
                continue
            h = (sdim - rank(_tensor_differential(res, n, i, d), p)
                 - rank(_tensor_differential(res, n, i + 1, d), p))
            if h:
                by_degree[d] = h
        dims.append(by_degree)
    q = max((i for i in range(window + 1) if dims[i]), default=0)
    if res.terminated_at is not None:
        return dims, q, "finite-pd"
    rigor = "window-only"
    cert = detect_resolution_periodicity(res)
    if cert is not None:
        if q <= cert.onset + cert.period and window >= cert.onset + 2 * cert.period + 1:
            rigor = "periodic-tail"
    return dims, q, rigor


class _HomologySpaces:
    """Degreewise homology of F_i tensor N as coordinate subquotients."""

    def __init__(self, ring, res, n_mod, i):
        self.ring = ring
        self.res = res
        self.n = n_mod
        self.i = i
        self._data = {}

    def space(self, d):
        if d not in self._data:
            p = self.ring.char
            sdim = sum(_tensor_component_dims(self.res.gen_degrees(self.i), self.n, d))
            if sdim == 0:
                self._data[d] = (zeros(0, 0), [], zeros(0, 0))
            else:
                z = kernel_basis(_tensor_differential(self.res, self.n, self.i, d), p)
                up = _tensor_differential(self.res, self.n, self.i + 1, d)
                if up.shape[1] and z.shape[1]:
                    b_in_z = solve_many(z, up, p)
                else:
                    b_in_z = zeros(z.shape[1], 0)
                idx, proj = quotient_projection(b_in_z, p)
                self._data[d] = (z, idx, proj)
        return self._data[d]

    def dim(self, d):
        return len(self.space(d)[1])

    def action_matrix(self, e, a):
        p = self.ring.char
        z_a, idx_a, _ = self.space(a)
        z_t, _, proj_t = self.space(a + e)
        de, r = self.ring.dim(e), len(idx_a)
        if not (de and r and proj_t.shape[0]):
            return np.zeros((de, self.dim(a + e), r), dtype=np.int64)
        gens = self.res.gen_degrees(self.i)
        sdims = _tensor_component_dims(gens, self.n, a)
        tdims = _tensor_component_dims(gens, self.n, a + e)
        reps = np.split(z_a[:, idx_a], np.cumsum(sdims)[:-1])
        blocks = {}
        for b, g in enumerate(gens):
            if sdims[b] and tdims[b]:
                acts = self.n.action_matrix(e, a - g).transpose(1, 0, 2)
                prod = matmul(acts.reshape(tdims[b] * de, sdims[b]), reps[b], p)
                blocks[(b, 0)] = prod.reshape(tdims[b], de * r)
        acted = freemod.block_matrix(tdims, [de * r], blocks)
        in_h = matmul(proj_t, solve_many(z_t, acted, p), p)
        return np.ascontiguousarray(in_h.reshape(-1, de, r).transpose(1, 0, 2))


def _reference_tor_module(n, i, res):
    ring = res.ring
    spaces = _HomologySpaces(ring, res, n, i)
    degrees = _tensor_window(res, n, i)
    mingens = minimal_generators_in(spaces, degrees.low, degrees.top)
    if not mingens:
        return free_module(ring, ())
    gens = tuple(d for d, _ in mingens)
    rels, _, _ = kernel_generators(
        ring, gens, partial(generator_matrix, spaces, mingens), degrees.low)
    return GradedModule(ring, gens, rels or freemod.FreeMap.zero(ring, (), gens))


def _hom_matrix(dmap, n_mod, w):
    src, tgt = dmap.source_degrees, dmap.target_degrees
    rdims = [n_mod.dim(g + w) for g in src]
    cdims = [n_mod.dim(h + w) for h in tgt]
    placed = {}
    for b, g in enumerate(src):
        if rdims[b] == 0:
            continue
        for c, piece in blocks(dmap, b):
            if cdims[c]:
                placed[(b, c)] = action_by_ring_vector(n_mod, piece, g - tgt[c], tgt[c] + w)
    return freemod.block_matrix(rdims, cdims, placed)


def _reference_ext(n, t, res):
    """[(internal degree, values)] of the Ext^t classes, in order."""
    gens_t = res.gen_degrees(t)
    if not gens_t:
        return []
    p = res.ring.char
    top = max(gens_t + res.gen_degrees(t + 1) + res.gen_degrees(t - 1))
    window = res.ring.degree_window(n.min_degree(), max(n.gen_degrees, default=0))
    out = []
    for w in range(window.low - top, window.low + window.bound - top + 1):
        dims = [n.dim(g + w) for g in gens_t]
        total = sum(dims)
        if total == 0:
            continue
        cocycles = identity(total)
        if res.gen_degrees(t + 1):
            cocycles = kernel_basis(_hom_matrix(res.diff(t + 1), n, w), p)
        if cocycles.shape[1] == 0:
            continue
        cob = _hom_matrix(res.diff(t), n, w) if t >= 1 else zeros(total, 0)
        for idx in extend_basis(cob, cocycles, p):
            out.append((w, np.split(cocycles[:, idx].copy(), np.cumsum(dims[:-1]))))
    return out


def _koszul_diff(module, acts_at, n, i, d):
    """d_{i,d}: the Koszul differential on the n variables,
    from wedge^i F_p^n (x) M_{d-i} to wedge^(i-1) F_p^n (x) M_{d-i+1}:
    m e_J -> sum_t (-1)^t x_{J_t} m e_{J - J_t}, J-major.  acts_at(a) lists
    the matrices of the variables from M_a to M_{a+1}."""
    p, a = module.ring.char, d - i
    rows, cols = module.dim(a + 1), module.dim(a)
    target = {J: r for r, J in enumerate(combinations(range(n), i - 1))}
    source = list(combinations(range(n), i))
    placed = {}
    if rows and cols:
        acts = acts_at(a)
        for c, J in enumerate(source):
            for t, j in enumerate(J):
                r = target[J[:t] + J[t + 1:]]
                placed[(r, c)] = acts[j] if t % 2 == 0 else -acts[j] % p
    return freemod.block_matrix([rows] * len(target), [cols] * len(source), placed)


def _reference_depth(module):
    """n - pd_S(M) from the ranks of the Koszul differentials, each block
    one variable's action on M."""
    ring = module.ring
    n = len(ring.vars)
    xs = [normal_form(ring, {tuple(int(k == j) for k in range(n)): 1}, 1)
          for j in range(n)]

    def acts_at(a):
        return [action_by_ring_vector(module, x, 1, a) for x in xs]

    window = ring.degree_window(module.min_degree(), max(module.gen_degrees) + n)
    pd, lo = 0, window.low
    for i in range(1, n + 1):
        found = []
        for d in range(lo, window.top + 1):
            size = math.comb(n, i) * module.dim(d - i)
            if size and size != (rank(_koszul_diff(module, acts_at, n, i, d), ring.char)
                                 + rank(_koszul_diff(module, acts_at, n, i + 1, d), ring.char)):
                window.certify(d)
                found.append(d)
        if not found:
            break
        pd, lo = i, found[0]
    return n - pd


def _reference_homology_dim(cx, j, d):
    sdim = freemod.component_dim(cx.ring, cx.gen_degrees(j), d)
    if sdim == 0:
        return 0
    ranks = [rank(f.induced(d), cx.ring.char) if f is not None and f.source_degrees else 0
             for f in (cx.diff(j), cx.diff(j + 1))]
    return sdim - sum(ranks)


# -- the comparison -----------------------------------------------------------


def _seeded_modules(p):
    """Over F_p[x,y,z]/(l l', maybe one more random quadric), l and l'
    random linear forms, degree bound 10: the residue field k, its first
    syzygy, R/(l) (a zero divisor, so of infinite projective dimension)
    and a random module on two generators."""
    rng = random.Random(p)
    base = PolyRing(p, "xyz", 10)
    lin = _form(rng, base, 1)
    quadrics = [poly_mul(lin, _form(rng, base, 1), p)]
    quadrics += [_form(rng, base, 2) for _ in range(rng.randint(0, 1))]
    ring = TruncatedQuotientRing(base, quadrics)
    k = residue_field(ring)
    two = module_from_presentation(ring, [0, 1], [[_form(rng, base, 2), _form(rng, base, 1)],
                                                  [{}, _form(rng, base, 1)]])
    return [k, coker_module(resolve(k, 2), 1), module_from_presentation(ring, [0], [[lin]]),
            two]


@pytest.mark.parametrize("p", PRIMES)
def test_homology_readers_match_the_separate_computations(p):
    modules = [m for m in _seeded_modules(p) if not m.is_zero()]
    assert len(modules) == 4
    for m in modules:
        res = resolve(m, 4)
        assert depth(m).depth == _reference_depth(m)
        for n in modules:
            profile = tor(m, n, 3, res=res)
            assert (profile.dims, profile.q, profile.q_rigor) == _reference_tor(res, n, 3)
            for t in (0, 1, 2):
                got = [(c.internal_degree, c.values) for c in ext_basis(m, n, t, res=res)]
                want = _reference_ext(n, t, res)
                assert [w for w, _ in got] == [w for w, _ in want]
                for (_, a), (_, b) in zip(got, want):
                    assert len(a) == len(b) and all(map(np.array_equal, a, b))
            for i in (1, 2):
                window = _tensor_window(res, n, i)
                degrees = range(window.low, window.top + 1)
                got, want = tor_as_module(m, n, i, res=res), _reference_tor_module(n, i, res)
                assert [got.dim(d) for d in degrees] == [want.dim(d) for d in degrees]
        # the resolution, and the resolution with d_1 = 0, whose H_1 is the
        # first syzygy module
        cut = list(res.diffs)
        cut[1] = freemod.FreeMap.zero(m.ring, res.gen_degrees(1), res.gen_degrees(0))
        window = m.ring.degree_window(res.low, max(g for gens in res.gens for g in gens))
        for cx in (res, FreeComplex(m.ring, res.gens, cut)):
            homology = cx.homology()
            for j in range(3):
                for d in range(window.low, window.top + 1):
                    assert homology.dim(j, d) == _reference_homology_dim(cx, j, d)


@pytest.mark.parametrize("p", PRIMES)
def test_tensor_and_hom_matrices_match_the_per_piece_references(p):
    # d_i (x) N is d_i.induced(d, N) and Hom(d_i, N) is
    # d_i.dual().induced(w, N), against the block-by-block references, over
    # each seeded module and its shift into negative degrees
    modules = [m for m in _seeded_modules(p) if not m.is_zero()]
    nonzero = set()
    for m in modules:
        res = resolve(m, 3)
        top = max(g for gens in res.gens for g in gens)
        for n in modules + [modules[-1].shifted(-2)]:
            lo = n.min_degree()
            for i in [i for i in range(1, 4) if res.gen_degrees(i)]:
                dmap = res.diff(i)
                for d in range(lo, lo + top + 2):
                    got = dmap.induced(d, n)
                    assert np.array_equal(got, _tensor_differential(res, n, i, d))
                    nonzero |= {("tensor", lo < 0)} if got.any() else set()
                for w in range(lo - top, lo + 3):
                    got = dmap.dual().induced(w, n)
                    assert np.array_equal(got, _hom_matrix(dmap, n, w))
                    nonzero |= {("hom", lo < 0)} if got.any() else set()
    assert nonzero == {("tensor", False), ("tensor", True), ("hom", False), ("hom", True)}
