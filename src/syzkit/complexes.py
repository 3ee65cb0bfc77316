"""Bounded-below complexes of graded free modules and the periodic-factor
tensor/cone constructions.  A minimal free resolution
(`resolutions.FreeResolution`) is a `FreeComplex` with an augmentation.

Sign conventions, fixed once and asserted by the verification checks:

* tensor differential: d(u (x) v) = du (x) v + (-1)^{|u|} u (x) dv
  (the sign rides on the left factor's homological degree);
* a chain map of homological shift n satisfies
  phi_{j-1} d_j = (-1)^n d_{j-n} phi_j;
* the cone of phi : X -> Z (shift n, internal twist tau) is
  C_j = X_{j-1}(tau) (+) Z_{j-n} with d(x, z) = (-dx, phi x + (-1)^n dz).

The checks read each composite as `freemod.FreeMap.compose` gives it, one
matrix of images per degree, worked out from the two maps' stored blocks,
and build no map and no dense degree matrix of one: d o d = 0 asks every
matrix to vanish, and the two sides of the chain condition, or the two
orders of a pair of graded-commuting maps, are compared matrix by matrix,
paired by their source generators.

Internal twists track the grading: a shift-n periodicity map sends the
degree-d part of F_j isomorphically onto the degree-(d+tau) part of
F_{j-n}, with one tau for the whole map.

`tensor_many` builds the product of c factors in one pass, over one ring
(the tensor product of the factor rings), and checks d o d = 0 once.  Each
product generator keeps the label ((a_1, u_1), .., (a_c, u_c)) of the factor
generators it is made of; the induced maps find their targets through these
labels.  A truncation of some factors below their periods is the label
subcomplex (`FreeComplex.subcomplex`) of the one product, so every
truncated product lives over the product's one ring.

The builders move their maps' pieces in whole groups.  `tensor_many` and
`induced_chain_map` carry each factor differential and each component of
eta into the product ring once, by one exact product per group of its
pieces (`_Embedding.embedded`), and place the embedded pieces by label
through `_Embedding.placed`, with the Koszul sign (-1)^(n * (degree left
of the factor)) for a map of shift n (n = 1 for a differential), one
record per pair of degrees (`freemod.records_of`).
`cone` puts d_j together from the records of -dx, phi and (-1)^n dz, and
`induced_on_cone` its maps from those of psi, moved onto the cone's
generators and signed by `freemod.FreeMap.records`; `minimize_complex`
drops a row of d_{j+1} from its records.

`minimize_complex` splits off the first unit u of a scalar block: smallest
j, then row r, then column c of d_j.  Each column b of d_j becomes
col_b - u^-1 (entry (r, b)) col_c, which vanishes on row r, and source c
and target r are dropped; d_{j+1} loses row c and d_{j-1} column r.  Losing
a row or a column makes no unit, so the scan goes on at j.
"""

from functools import reduce

import numpy as np

from . import freemod
from .errors import SyzkitError, WindowError
from .linalg import matmul, matvec, rank
from .modules import GradedModule, Homology
from .rings import algebra_tensor

# -- complexes ----------------------------------------------------------------


class FreeComplex:
    """Complex of graded free modules, zero below homological degree 0."""

    def __init__(self, ring, gens, diffs, labels=None):
        self.ring = ring
        self.gens = [tuple(g) for g in gens]
        self.diffs = diffs  # diffs[j]: FreeMap F_j -> F_{j-1}; diffs[0] is None
        self.labels = labels
        if len(self.diffs) != len(self.gens):
            raise SyzkitError("complex needs one differential slot per term")

    @property
    def window(self):
        return len(self.gens) - 1

    def gen_degrees(self, j):
        if 0 <= j < len(self.gens):
            return self.gens[j]
        return ()

    def rank(self, j):
        return len(self.gen_degrees(j))

    def ranks(self):
        return [self.rank(j) for j in range(self.window + 1)]

    def diff(self, j):
        if 1 <= j < len(self.diffs):
            return self.diffs[j]
        return None

    def verify(self):
        """d o d = 0, exactly, in every adjacent pair."""
        for j in range(2, self.window + 1):
            a, b = self.diff(j - 1), self.diff(j)
            if a is None or b is None or not b.source_degrees or not a.source_degrees:
                continue
            if any(images.any() for _, images in a.compose(b)):
                return False
        return True

    def is_minimal(self):
        return not any(d.scalar_block().any() for d in self.diffs[1:]
                       if d is not None and d.source_degrees)

    def homology(self, over=None):
        """H(C (x) X), X = R or the module `over`, as a fresh `Homology`
        whose d_j is `d_j.induced(d, over)`, the zero map where none is stored."""
        return Homology(self.ring, lambda j, d: self.diff_or_zero(j).induced(d, over))

    def diff_or_zero(self, j):
        """d_j, or the zero map F_j -> F_{j-1} where no d_j is stored."""
        return self.diff(j) or freemod.FreeMap.zero(self.ring, self.gen_degrees(j),
                                                    self.gen_degrees(j - 1))

    def sup_within_window(self):
        """Largest j (within the window) with nonzero homology; None if all
        zero.  One `Homology` gives every H_{j,d}, over the degree window on
        all the terms' generators, so a twist of the complex moves no j."""
        degs = [g for gens in self.gens for g in gens]
        window = self.ring.degree_window(min(degs, default=0), max(degs, default=0))
        homology = self.homology()
        for j in range(self.window - 1, -1, -1):
            if any(homology.dim(j, d) for d in range(window.low, window.top + 1)):
                return j
        return None

    def scalar_rank(self, j):
        d = self.diff(j)
        if d is None or not d.source_degrees or not d.target_degrees:
            return 0
        return rank(d.scalar_block(), self.ring.char)

    def minimal_bettis(self, w):
        """Ranks of the terms 0..w-1 of the minimal model (acyclic summands
        split); each scalar block is ranked once."""
        if w > self.window:
            raise WindowError("minimal Betti needs the next differential")
        units = [self.scalar_rank(j) for j in range(w + 1)]
        return [self.rank(j) - units[j] - units[j + 1] for j in range(w)]

    def slice_window(self, w):
        """The same complex viewed only out to homological degree w."""
        if w >= self.window:
            return self
        return FreeComplex(self.ring, self.gens[: w + 1], self.diffs[: w + 1])

    def subcomplex(self, keep):
        """The subcomplex of a labelled complex (a tensor product) on the
        generators keep[j] of each term F_j (lists of indices, in order),
        with their labels; the differential must map it into itself."""
        labels = [[row[b] for b in kept] for row, kept in zip(_product_labels(self), keep)]
        gens = [[row[b] for b in kept] for row, kept in zip(self.gens, keep)]
        diffs = [None] + [self.diff(j).restrict(keep[j], keep[j - 1])
                          for j in range(1, self.window + 1)]
        out = FreeComplex(self.ring, gens, diffs, labels)
        if not out.verify():
            raise SyzkitError("subcomplex differential does not square to zero")
        return out


def _product_labels(cx):
    if cx.labels is None:
        raise SyzkitError("needs a labelled tensor_many product; this complex has no labels")
    return cx.labels


# -- chain maps ---------------------------------------------------------------


class ChainMap:
    def __init__(self, source, target, shift, twist, components):
        self.source = source
        self.target = target
        self.shift = shift
        self.twist = twist
        self.components = components  # components[j]: FreeMap F_j -> T_{j-shift}

    def component(self, j):
        if 0 <= j < len(self.components):
            return self.components[j]
        return None

    def verify(self, j_lo=0):
        """phi_{j-1} d_j = (-1)^shift d_{j-shift} phi_j for j_lo < j <= window,
        exactly, on the composites' images degree by degree; where there is
        no d_{j-shift}, phi_{j-1} d_j = 0."""
        sign = (-1) ** self.shift
        for j in range(j_lo + 1, self.source.window + 1):
            dS = self.source.diff(j)
            if dS is None or not dS.source_degrees:
                continue
            lhs = self.component(j - 1).compose(dS)
            phi_j = self.component(j)
            dT = self.target.diff(j - self.shift)
            rhs = []
            if dT is not None and dT.source_degrees and phi_j.target_degrees:
                rhs = dT.compose(phi_j)
            if not _agree(lhs, rhs, sign, self.source.ring.char):
                return False
        return True

    def is_surjective(self):
        """All components onto (scalar-block check; exact by graded Nakayama)."""
        return all(
            self.component(j).degreewise_surjective()
            for j in range(self.source.window + 1)
        )

    def iso_range_ok(self, j_lo):
        return all(
            self.component(j).degreewise_isomorphism()
            for j in range(j_lo, self.source.window + 1)
        )

    def restrict(self, sub, keep):
        """This self-map on the subcomplex sub, whose term j is on the
        generators keep[j] of the source's; the map must preserve it."""
        n = self.shift
        comps = [self.component(j).restrict(keep[j], keep[j - n] if j >= n else [])
                 for j in range(sub.window + 1)]
        out = ChainMap(sub, sub, self.shift, self.twist, comps)
        if not out.verify():
            raise SyzkitError("restricted chain map fails the chain condition")
        return out


def _agree(lhs, rhs, sign, p):
    """Whether lhs = sign * rhs mod p, for two composites that
    `freemod.FreeMap.compose` gives on the same source generators: their
    image matrices are paired by generators, and a group that one side
    lacks is zero on that side."""
    left, right = dict(lhs), dict(rhs)
    for bs in left.keys() | right.keys():
        a, b = left.get(bs), right.get(bs)
        if a is None:
            a = np.zeros_like(b)
        if b is None:
            b = np.zeros_like(a)
        if not np.array_equal(a, (sign * b) % p):
            return False
    return True


# -- tensor products ----------------------------------------------------------


class _Embedding:
    """Coordinates of a factor ring's components inside the product ring,
    and the factor maps carried into it, each kept for one call."""

    def __init__(self, factor_ring, product_ring):
        self.factor = factor_ring
        self.product = product_ring
        self._cache = {}
        self._maps = {}

    def matrix(self, e):
        """R_e of the factor inside R_e of the product, one column per basis
        monomial of the factor: the product's normal forms, gathered at the
        monomials with their exponents placed on the product's variables."""
        if e not in self._cache:
            mons = np.array(self.factor.basis_monomials(e), dtype=np.int64)
            onto = np.array(self.factor.vars)[:, None] == np.array(self.product.vars)
            at = self.product.base.monomial_positions(mons.reshape(-1, len(onto)) @ onto, e)
            self._cache[e] = self.product.nf_matrix(e)[:, at]
        return self._cache[e]

    def embedded(self, fmap):
        """fmap's columns over the product ring, each a list of (target
        generator, piece): each group of its pieces, over R_e of the
        factor, is embedded by one exact product."""
        if fmap not in self._maps:
            src, tgt, tw = fmap.source_degrees, fmap.target_degrees, fmap.twist
            cols = self._maps[fmap] = [[] for _ in src]
            for bs, cs, stack in fmap.records():
                embedded = matmul(stack, self.matrix(src[bs[0]] + tw - tgt[cs[0]]).T,
                                  self.product.char)
                for b, c, piece in zip(bs.tolist(), cs.tolist(), embedded):
                    cols[b].append((c, piece))
        return self._maps[fmap]

    def placed(self, pos, j, k, component, shift):
        """Yield the pieces (b, c, piece) of id (x) .. f .. (x) id on the
        degree-j generators b of the product, pos[j] mapping each label to b:
        f has shift `shift` on factor k and component(a) on its term a (None
        for zero), and each piece the sign (-1)^(shift * degree left of k)."""
        p = self.product.char
        for lab, b in pos[j].items():
            a, u = lab[k]
            fmap = component(a)
            if fmap is None:
                continue
            sign = (-1) ** (shift * sum(h for h, _ in lab[:k])) % p
            for c, piece in self.embedded(fmap)[u]:
                target = lab[:k] + ((a - shift, c),) + lab[k + 1:]
                if j - shift < 0 or target not in pos[j - shift]:
                    raise SyzkitError("induced map hit a missing product generator")
                yield b, pos[j - shift][target], piece if sign == 1 else sign * piece % p


def tensor_pair(f, g):
    """Tensor product of two complexes over the tensor product of their rings."""
    return tensor_many([f, g])


def tensor_many(factors):
    """Tensor product of the factors over the tensor product of their rings,
    built in one pass.

    The generators of degree j are labelled ((a_1, u_1), .., (a_c, u_c)):
    generator u_k of the k-th factor's term a_k, with a_1 + .. + a_c = j.
    They come in the order a left fold of pairwise products gives: by the
    degree of the first c - 1 factors, then their labels in that order,
    then the last factor's generator.  The k-th factor's differential
    carries the sign (-1)^(a_1 + .. + a_{k-1}).
    """
    if not factors:
        raise SyzkitError("tensor product needs at least one factor")
    if len({f.ring.char for f in factors}) > 1:
        raise SyzkitError("characteristic mismatch in tensor product")
    ring = reduce(algebra_tensor, [f.ring for f in factors])
    embeddings = [_Embedding(f.ring, ring) for f in factors]
    w = min(f.window for f in factors)
    # start from the empty product, k in degree 0; in degree j, the product
    # so far in degree a = 0..j pairs with the next factor's term j - a
    labels = [[()]] + [[] for _ in range(w)]
    for f in factors:
        labels = [
            [lab + ((j - a, u),) for a in range(j + 1) for lab in labels[a]
             for u in range(f.rank(j - a))]
            for j in range(w + 1)
        ]

    def degree(lab):
        return sum(f.gen_degrees(a)[u] for f, (a, u) in zip(factors, lab))

    gens = [tuple(degree(lab) for lab in row) for row in labels]
    pos = [{lab: i for i, lab in enumerate(row)} for row in labels]
    diffs = [None]
    for j in range(1, w + 1):
        placed = sorted((x for k, (f, emb) in enumerate(zip(factors, embeddings))
                         for x in emb.placed(pos, j, k, f.diff, 1)), key=lambda x: x[0])
        diffs.append(freemod.FreeMap(ring, gens[j], gens[j - 1],
                                     freemod.records_of(gens[j], gens[j - 1], placed)))
    out = FreeComplex(ring, gens, diffs, labels)
    if not out.verify():
        raise SyzkitError("tensor complex differential does not square to zero")
    return out


def induced_chain_map(product, factor_index, eta):
    """id (x) ... (x) eta (x) ... (x) id on a tensor_many product, eta a
    self-map of the factor at factor_index.

    Koszul sign (-1)^{shift * (total homological degree left of the factor)}.
    """
    nfactors = max((len(row[0]) for row in _product_labels(product) if row), default=0)
    if not 0 <= factor_index < nfactors:
        raise SyzkitError("factor index out of range")
    ring = product.ring
    emb = _Embedding(eta.source.ring, ring)
    n, tau = eta.shift, eta.twist
    pos = [{lab: i for i, lab in enumerate(row)} for row in product.labels]
    comps = []
    for j in range(product.window + 1):
        placed = emb.placed(pos, j, factor_index, eta.component, n)
        src, tgt = product.gen_degrees(j), product.gen_degrees(j - n)
        comps.append(freemod.FreeMap(ring, src, tgt, freemod.records_of(src, tgt, placed), tau))
    out = ChainMap(product, product, n, tau, comps)
    if not out.verify():
        raise SyzkitError("induced chain map fails the chain condition (sign bug)")
    return out


# -- cones ----------------------------------------------------------------


def cone(phi):
    """Mapping cone of a chain map phi : X -> Z of shift n and twist tau."""
    x, z = phi.source, phi.target
    ring = x.ring
    n, tau = phi.shift, phi.twist
    sign = (-1) ** n
    w = x.window
    gens = []
    for j in range(w + 1):
        xs = tuple(g + tau for g in x.gen_degrees(j - 1))
        zs = z.gen_degrees(j - n)
        gens.append(xs + zs)
    diffs = [None]
    for j in range(1, w + 1):
        # C_j = X_{j-1}(tau) (+) Z_{j-n} onto C_{j-1} = X_{j-2}(tau) (+) Z_{j-1-n}
        rx, nx = x.rank(j - 1), x.rank(j - 2)
        dx, dz = x.diff(j - 1), z.diff(j - n)
        recs = phi.component(j - 1).records(targets=nx)
        if dx is not None:
            recs += dx.records(scale=-1)
        if dz is not None:
            recs += dz.records(rx, nx, sign)
        diffs.append(freemod.FreeMap(ring, gens[j], gens[j - 1], recs))
    out = FreeComplex(ring, gens, diffs)
    out._cone_of = phi
    if not out.verify():
        raise SyzkitError("cone differential does not square to zero")
    return out


def induced_on_cone(cone_cx, psi):
    """Self-map of the cone induced by psi commuting with the cone's map.

    Components are (psi_{j-1}, (-1)^(m(n+1)) psi_{j-n}) on the two blocks,
    m the shift of psi.  With d(x, z) = (-dx, phi x + (-1)^n dz), signs
    (s1, s2) give a chain map iff s2 psi phi = (-1)^m s1 phi psi; maps
    induced on a tensor product graded-commute, psi phi = (-1)^(mn) phi psi,
    which makes them (1, (-1)^(m(n+1))).  The map is verified once; a
    failure means that psi does not graded-commute with phi.
    """
    phi = cone_cx._cone_of
    x = phi.source
    ring = x.ring
    n = phi.shift
    m, upsilon = psi.shift, psi.twist
    s2 = (-1) ** (m * (n + 1))
    comps = []
    for j in range(cone_cx.window + 1):
        # C_j = X_{j-1}(tau) (+) Z_{j-n} onto C_{j-m} = X_{j-m-1}(tau) (+) Z_{j-m-n}
        rx, nx = x.rank(j - 1), x.rank(j - m - 1)
        on_x, on_z = psi.component(j - 1), psi.component(j - n)
        recs = on_x.records() if on_x is not None else []
        if on_z is not None:
            recs += on_z.records(rx, nx, s2)
        comps.append(freemod.FreeMap(ring, cone_cx.gen_degrees(j), cone_cx.gen_degrees(j - m),
                                     recs, upsilon))
    out = ChainMap(cone_cx, cone_cx, m, upsilon, comps)
    if not out.verify():
        raise SyzkitError(
            "the map does not commute with the cone's map, so it induces no "
            "chain map on the cone"
        )
    return out


# -- minimization -----------------------------------------------------------


def minimize_complex(cx):
    """The complex with every acyclic rank-one summand at a unit
    differential entry split off, by the rule in the module docstring."""
    ring = cx.ring
    gens = [list(g) for g in cx.gens]
    diffs = list(cx.diffs)
    for j in range(1, cx.window + 1):
        scalars = diffs[j].scalar_block()
        while scalars.any():
            r, c = map(int, np.argwhere(scalars)[0])
            diffs[j] = _split_unit(diffs[j], r, c, scalars[r, c])
            if j < cx.window:  # d_{j+1} loses its pieces on row c
                nxt = diffs[j + 1]
                recs = [(bs[keep], cs[keep] - (cs[keep] > c), stack[keep])
                        for bs, cs, stack in nxt.records() for keep in [cs != c]]
                diffs[j + 1] = freemod.FreeMap(
                    ring, nxt.source_degrees, gens[j][:c] + gens[j][c + 1:], recs, nxt.twist)
            if j > 1:
                diffs[j - 1] = diffs[j - 1].restrict(
                    [b for b in range(len(gens[j - 1])) if b != r], range(len(gens[j - 2])))
            del gens[j][c]
            del gens[j - 1][r]
            scalars = diffs[j].scalar_block()
    out = FreeComplex(ring, gens, diffs)
    if not out.verify():
        raise SyzkitError("minimization broke the differential")
    return out


def _split_unit(d, r, c, u):
    """d with its unit entry u at (r, c) split off.  A column b != c with a
    piece x_b on row r becomes d(e_b - u^-1 x_b e_c): the degree-g_b matrix
    of d on columns b and c times (1, -u^-1 x_b).  The other columns keep
    their records, and `restrict` drops column c and row r, refusing a
    column left nonzero on row r."""
    ring, p, src, tgt = d.ring, d.ring.char, d.source_degrees, d.target_degrees
    neg = -pow(int(u), -1, p) % p
    hit = {b: x for bs, cs, stack in d.records() for on_r in [cs == r]
           for b, x in zip(bs[on_r].tolist(), stack[on_r]) if b != c}
    new = freemod.FreeMap.from_dense(ring, [src[b] for b in hit], tgt, [
        matvec(d.restrict([b, c], range(len(tgt))).induced(src[b]),
               np.concatenate([[1], neg * x % p]), p) for b, x in hit.items()])
    at = np.array(list(hit), dtype=np.intp)
    recs = [(bs[keep], cs[keep], stack[keep]) for bs, cs, stack in d.records()
            for keep in [~np.isin(bs, at)]]
    recs += [(at[bs], cs, stack) for bs, cs, stack in new.records()]
    return freemod.FreeMap(ring, src, tgt, recs).restrict(
        [b for b in range(len(src)) if b != c], [a for a in range(len(tgt)) if a != r])


def coker_module(cx, level=0):
    """The cokernel of d_{level+1} as a presented module: d_{level+1} is its
    relation map."""
    gens = cx.gen_degrees(level)
    d = cx.diff(level + 1)
    return GradedModule(cx.ring, gens, freemod.FreeMap.zero(cx.ring, (), gens) if d is None else d)
