"""Bounded-below complexes of graded free modules and the periodic-factor
tensor/cone constructions.

Sign conventions, fixed once and asserted by the verification checks:

* tensor differential: d(u (x) v) = du (x) v + (-1)^{|u|} u (x) dv
  (the sign rides on the left factor's homological degree);
* a chain map of homological shift n satisfies
  phi_{j-1} d_j = (-1)^n d_{j-n} phi_j;
* the cone of phi : X -> Z (shift n, internal twist tau) is
  C_j = X_{j-1}(tau) (+) Z_{j-n} with d(x, z) = (-dx, phi x + (-1)^n dz).

Internal twists track the grading: a shift-n periodicity map sends the
degree-d part of F_j isomorphically onto the degree-(d+tau) part of
F_{j-n}, with one tau for the whole map.
"""

import numpy as np

from . import freemod
from .errors import SyzkitError, WindowError
from .linalg import matmul, rank, zeros
from .modules import GradedModule
from .polynomials import poly_add, poly_mul, poly_scale

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
            if not a.compose(b).is_zero():
                return False
        return True

    def is_minimal(self):
        return all(
            d.has_positive_degree_entries_only()
            for d in self.diffs[1:]
            if d is not None and d.source_degrees
        )

    def component_dim(self, j, d):
        return freemod.component_dim(self.ring, self.gen_degrees(j), d)

    def homology_dim(self, j, d):
        """dim_k H_j(C)_d; needs j+1 within the window."""
        if j < 0 or j > self.window - 1:
            raise WindowError("homology needs one more differential than the window")
        sdim = self.component_dim(j, d)
        if sdim == 0:
            return 0
        dj = self.diff(j)
        down_rank = 0
        if j >= 1 and dj is not None and dj.source_degrees:
            down_rank = rank(dj.induced(d), self.ring.char)
        up = self.diff(j + 1)
        up_rank = 0
        if up is not None and up.source_degrees:
            up_rank = rank(up.induced(d), self.ring.char)
        return sdim - down_rank - up_rank

    def homology_total(self, j, dmax=None):
        if dmax is None:
            dmax = self.ring.degree_bound
        return sum(self.homology_dim(j, d) for d in range(dmax + 1))

    def sup_within_window(self, dmax=None):
        """Largest j (within the window) with nonzero homology; None if all zero."""
        for j in range(self.window - 1, -1, -1):
            if self.homology_total(j, dmax):
                return j
        return None

    def scalar_rank(self, j):
        d = self.diff(j)
        if d is None or not d.source_degrees or not d.target_degrees:
            return 0
        return rank(d.scalar_block(), self.ring.char)

    def minimal_betti(self, j):
        """Rank of the j-th term of the minimal model (acyclic summands split)."""
        if j > self.window - 1:
            raise WindowError("minimal Betti needs the next differential")
        return self.rank(j) - self.scalar_rank(j) - self.scalar_rank(j + 1)

    def shift(self, n, twist=0):
        """Sigma^n with differential sign (-1)^n and optional internal twist."""
        gens = []
        diffs = [None]
        sign = (-1) ** n
        for j in range(self.window + 1):
            src = self.gen_degrees(j - n)
            gens.append(tuple(g + twist for g in src))
        for j in range(1, self.window + 1):
            d = self.diff(j - n)
            if d is None or not d.source_degrees or j - n - 1 < 0:
                diffs.append(
                    freemod.FreeMap.zero(self.ring, gens[j], gens[j - 1])
                )
            else:
                cols = [(c * sign) % self.ring.char for c in d.columns]
                diffs.append(freemod.FreeMap(self.ring, gens[j], gens[j - 1], cols))
        return FreeComplex(self.ring, gens, diffs)

    def slice_window(self, w):
        """The same complex viewed only out to homological degree w."""
        if w >= self.window:
            return self
        labels = self.labels[: w + 1] if self.labels is not None else None
        return FreeComplex(self.ring, self.gens[: w + 1], self.diffs[: w + 1], labels)

    def truncate_below(self, n):
        """Hard truncation keeping homological degrees 0..n-1.

        The window is preserved (explicit zero terms above) so truncated
        factors still tensor against full-window partners.
        """
        if n < 1:
            raise SyzkitError("truncation index must be >= 1")
        gens, diffs, labels = [], [], []
        for j in range(self.window + 1):
            keep = j < n
            gens.append(self.gen_degrees(j) if keep else ())
            if j == 0:
                diffs.append(None)
            elif keep and self.diff(j) is not None:
                diffs.append(self.diff(j))
            else:
                diffs.append(freemod.FreeMap.zero(self.ring, gens[j], gens[j - 1]))
            if self.labels is not None:
                labels.append(self.labels[j] if keep else [])
        return FreeComplex(self.ring, gens, diffs, labels if self.labels is not None else None)


def resolution_complex(res):
    return FreeComplex(res.ring, res.gens, res.diffs)


# -- chain maps ---------------------------------------------------------------


class ChainMap:
    def __init__(self, source, target, shift, twist, components):
        self.source = source
        self.target = target
        self.shift = shift
        self.twist = twist
        self.components = components  # components[j]: FreeMap F_j -> T_{j-shift}

    @classmethod
    def from_columns(cls, source, target, shift, twist, column_lists):
        comps = []
        for j in range(source.window + 1):
            src = source.gen_degrees(j)
            tgt = target.gen_degrees(j - shift)
            cols = column_lists[j] if j < len(column_lists) else None
            if cols is None:
                comps.append(freemod.FreeMap.zero(source.ring, src, tgt, twist))
            else:
                comps.append(freemod.FreeMap(source.ring, src, tgt, cols, twist))
        return cls(source, target, shift, twist, comps)

    def component(self, j):
        if 0 <= j < len(self.components):
            return self.components[j]
        return None

    def verify(self, j_lo=0):
        """phi_{j-1} d_j = (-1)^shift d_{j-shift} phi_j for j_lo < j <= window,
        exactly."""
        sign = (-1) ** self.shift
        for j in range(j_lo + 1, self.source.window + 1):
            dS = self.source.diff(j)
            if dS is None or not dS.source_degrees:
                continue
            phi_prev = self.component(j - 1)
            lhs = phi_prev.compose(dS)
            phi_j = self.component(j)
            dT = self.target.diff(j - self.shift)
            if dT is None or not dT.source_degrees or not phi_j.target_degrees:
                rhs = freemod.FreeMap.zero(
                    self.source.ring, dS.source_degrees, lhs.target_degrees, self.twist
                )
            else:
                rhs = dT.compose(phi_j).scale(sign)
            if not lhs.equals(rhs):
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

    def compose(self, other):
        """self after other (shifts and twists add)."""
        comps = []
        for j in range(other.source.window + 1):
            inner = other.component(j)
            outer = self.component(j - other.shift)
            if outer is None:
                outer = freemod.FreeMap.zero(
                    self.source.ring, inner.target_degrees, (), self.twist
                )
            comps.append(outer.compose(inner))
        return ChainMap(
            other.source, self.target, self.shift + other.shift,
            self.twist + other.twist, comps,
        )

    def scale(self, c):
        return ChainMap(
            self.source, self.target, self.shift, self.twist,
            [f.scale(c) for f in self.components],
        )

    def equals(self, other):
        if self.shift != other.shift or self.twist != other.twist:
            return False
        return all(
            a.equals(b) for a, b in zip(self.components, other.components)
        )

    def is_zero(self):
        return all(f.is_zero() for f in self.components)


def identity_chain_map(cx):
    comps = [
        freemod.FreeMap.identity(cx.ring, cx.gen_degrees(j))
        for j in range(cx.window + 1)
    ]
    return ChainMap(cx, cx, 0, 0, comps)


# -- tensor products ----------------------------------------------------------


class _Embedding:
    """Coordinates of a factor ring's components inside the product ring."""

    def __init__(self, factor_ring, product_ring):
        self.factor = factor_ring
        self.product = product_ring
        self._cache = {}

    def matrix(self, e):
        if e not in self._cache:
            from .rings import embed_monomial

            cols = []
            for mono in self.factor.basis_monomials(e):
                big = embed_monomial(mono, self.factor.vars, self.product.vars)
                cols.append(self.product.normal_form({big: 1}, degree=e))
            if cols:
                self._cache[e] = np.stack(cols, axis=1)
            else:
                self._cache[e] = zeros(self.product.dim(e), 0, self.product.char)
        return self._cache[e]

    def embed(self, vec, e):
        return matmul(self.matrix(e), np.asarray(vec).reshape(-1, 1), self.product.char)[:, 0]


def tensor_pair(f, g, product_ring=None):
    """Tensor product of two complexes over the tensor product of their rings."""
    from .rings import algebra_tensor

    if f.ring.char != g.ring.char:
        raise SyzkitError("characteristic mismatch in tensor product")
    a = product_ring if product_ring is not None else algebra_tensor(f.ring, g.ring)
    emb_f, emb_g = _Embedding(f.ring, a), _Embedding(g.ring, a)
    w = min(f.window, g.window)
    gens, labels = [], []
    pos = []
    for j in range(w + 1):
        row_gens, row_labels = [], []
        lookup = {}
        for aa in range(j + 1):
            bb = j - aa
            for ui, du in enumerate(f.gen_degrees(aa)):
                for vi, dv in enumerate(g.gen_degrees(bb)):
                    lookup[(aa, ui, vi)] = len(row_gens)
                    row_gens.append(du + dv)
                    row_labels.append((aa, ui, bb, vi))
        gens.append(tuple(row_gens))
        labels.append(row_labels)
        pos.append(lookup)

    diffs = [None]
    p = a.char
    for j in range(1, w + 1):
        cols = []
        for (aa, ui, bb, vi), total_deg in zip(labels[j], gens[j]):
            du = f.gen_degrees(aa)[ui]
            dv = g.gen_degrees(bb)[vi]
            vec = zeros(freemod.component_dim(a, gens[j - 1], total_deg), 1, p)[:, 0]
            offs = freemod.component_offsets(a, gens[j - 1], total_deg)
            if aa >= 1 and f.diff(aa) is not None and f.diff(aa).source_degrees:
                col = f.diff(aa).columns[ui]
                coffs = freemod.component_offsets(f.ring, f.gen_degrees(aa - 1), du)
                for c, hc in enumerate(f.gen_degrees(aa - 1)):
                    piece = col[coffs[c]:coffs[c + 1]]
                    if not piece.any():
                        continue
                    target = pos[j - 1][(aa - 1, c, vi)]
                    vec[offs[target]:offs[target + 1]] = emb_f.embed(piece, du - hc)
            if bb >= 1 and g.diff(bb) is not None and g.diff(bb).source_degrees:
                sign = (-1) ** aa
                col = g.diff(bb).columns[vi]
                coffs = freemod.component_offsets(g.ring, g.gen_degrees(bb - 1), dv)
                for c, hc in enumerate(g.gen_degrees(bb - 1)):
                    piece = col[coffs[c]:coffs[c + 1]]
                    if not piece.any():
                        continue
                    target = pos[j - 1][(aa, ui, c)]
                    emb = emb_g.embed(piece, dv - hc)
                    vec[offs[target]:offs[target + 1]] = (
                        vec[offs[target]:offs[target + 1]] + sign * emb
                    ) % p
            cols.append(vec)
        diffs.append(freemod.FreeMap(a, gens[j], gens[j - 1], cols))
    out = FreeComplex(a, gens, diffs, labels)
    out._tensor_pos = pos
    out._tensor_factors = (f, g)
    out._tensor_embeds = (emb_f, emb_g)
    if not out.verify():
        raise SyzkitError("tensor complex differential does not square to zero")
    return out


def tensor_many(factors, product_ring=None):
    """Left-fold tensor product; labels keep per-factor (degree, index) pairs."""
    if not factors:
        raise SyzkitError("tensor product needs at least one factor")
    if len(factors) == 1:
        f = factors[0]
        labels = [
            [((j, ui),) for ui in range(f.rank(j))] for j in range(f.window + 1)
        ]
        out = FreeComplex(f.ring, f.gens, f.diffs, labels)
        out._flat_factors = [f]
        out._label_pos = [
            {lab: i for i, lab in enumerate(labels[j])} for j in range(f.window + 1)
        ]
        return out
    current = tensor_many(factors[:-1])
    pair = tensor_pair(current, factors[-1],
                       product_ring if len(factors) == len(getattr(current, "_flat_factors", [])) + 1 and product_ring is not None else None)
    flat_labels = []
    for j in range(pair.window + 1):
        row = []
        for (aa, ui, bb, vi) in pair.labels[j]:
            left_label = current.labels[aa][ui] if current.labels else ((aa, ui),)
            row.append(left_label + ((bb, vi),))
        flat_labels.append(row)
    pair.labels = flat_labels
    pair._flat_factors = getattr(current, "_flat_factors", [current]) + [factors[-1]]
    pair._label_pos = [
        {lab: i for i, lab in enumerate(flat_labels[j])} for j in range(pair.window + 1)
    ]
    return pair


def induced_chain_map(product, factor_index, eta):
    """id (x) ... (x) eta (x) ... (x) id on a tensor_many product.

    Koszul sign (-1)^{shift * (total homological degree left of the factor)}.
    """
    factors = product._flat_factors
    if factor_index < 0 or factor_index >= len(factors):
        raise SyzkitError("factor index out of range")
    fac = factors[factor_index]
    ring = product.ring
    emb = _Embedding(fac.ring, ring)
    n, tau = eta.shift, eta.twist
    p = ring.char
    pos = product._label_pos
    column_lists = []
    for j in range(product.window + 1):
        cols = []
        for lab, total_deg in zip(product.labels[j], product.gens[j]):
            aa, ui = lab[factor_index]
            left_degree = sum(h for h, _ in lab[:factor_index])
            sign = (-1) ** (n * left_degree)
            tgt_gens = product.gen_degrees(j - n)
            vec = zeros(freemod.component_dim(ring, tgt_gens, total_deg + tau), 1, p)[:, 0]
            comp = eta.component(aa)
            if comp is not None and comp.target_degrees and aa < len(fac.gens):
                col = comp.columns[ui]
                du = fac.gen_degrees(aa)[ui]
                offs = freemod.component_offsets(ring, tgt_gens, total_deg + tau)
                coffs = freemod.component_offsets(
                    fac.ring, fac.gen_degrees(aa - n), du + tau
                )
                for c, hc in enumerate(fac.gen_degrees(aa - n)):
                    piece = col[coffs[c]:coffs[c + 1]]
                    if not piece.any():
                        continue
                    new_lab = lab[:factor_index] + ((aa - n, c),) + lab[factor_index + 1:]
                    if j - n < 0 or new_lab not in pos[j - n]:
                        raise SyzkitError("induced map hit a missing product generator")
                    t = pos[j - n][new_lab]
                    embedded = emb.embed(piece, du + tau - hc)
                    vec[offs[t]:offs[t + 1]] = (sign * embedded) % p
            cols.append(vec)
        column_lists.append(cols)
    out = ChainMap.from_columns(product, product, n, tau, column_lists)
    if not out.verify():
        raise SyzkitError("induced chain map fails the chain condition (sign bug)")
    return out


# -- cones ----------------------------------------------------------------


def cone(phi):
    """Mapping cone of a chain map phi : X -> Z of shift n and twist tau."""
    x, z = phi.source, phi.target
    ring = x.ring
    n, tau = phi.shift, phi.twist
    p = ring.char
    sign = (-1) ** n
    w = x.window
    gens = []
    for j in range(w + 1):
        xs = tuple(g + tau for g in x.gen_degrees(j - 1))
        zs = z.gen_degrees(j - n)
        gens.append(xs + zs)
    diffs = [None]
    for j in range(1, w + 1):
        cols = []
        xs_prev = tuple(g + tau for g in x.gen_degrees(j - 2))
        zs_prev = z.gen_degrees(j - 1 - n)
        for b, g in enumerate(x.gen_degrees(j - 1)):
            dx = x.diff(j - 1)
            if dx is not None and dx.source_degrees:
                x_piece = (-dx.columns[b]) % p
            else:
                x_piece = zeros(
                    freemod.component_dim(ring, xs_prev, g + tau), 1, p
                )[:, 0]
            comp = phi.component(j - 1)
            z_piece = comp.columns[b]
            cols.append(np.concatenate([x_piece, z_piece]))
        for b, h in enumerate(z.gen_degrees(j - n)):
            dz = z.diff(j - n)
            x_zero = zeros(freemod.component_dim(ring, xs_prev, h), 1, p)[:, 0]
            if dz is not None and dz.source_degrees:
                z_piece = (sign * dz.columns[b]) % p
            else:
                z_piece = zeros(freemod.component_dim(ring, zs_prev, h), 1, p)[:, 0]
            cols.append(np.concatenate([x_zero, z_piece]))
        diffs.append(freemod.FreeMap(ring, gens[j], gens[j - 1], cols))
    out = FreeComplex(ring, gens, diffs)
    out._cone_of = phi
    if not out.verify():
        raise SyzkitError("cone differential does not square to zero")
    return out


def induced_on_cone(cone_cx, psi):
    """Self-map of the cone induced by psi commuting with the cone's map.

    Components are (s1 psi_{j-1}, s2 psi_{j-n}) on the two blocks; the signs
    are found by trying the four combinations and keeping the first that
    satisfies the chain condition (deterministic order).
    """
    phi = cone_cx._cone_of
    x = phi.source
    ring = x.ring
    n, tau = phi.shift, phi.twist
    m, upsilon = psi.shift, psi.twist
    p = ring.char
    for s1 in (1, p - 1):
        for s2 in (1, p - 1):
            column_lists = []
            for j in range(cone_cx.window + 1):
                cols = []
                tgt = cone_cx.gen_degrees(j - m)
                x_tgt = tuple(g + tau for g in x.gen_degrees(j - m - 1))
                for b, g in enumerate(x.gen_degrees(j - 1)):
                    comp = psi.component(j - 1)
                    piece = comp.columns[b]
                    x_part = (int(s1) * piece) % p
                    z_dim = freemod.component_dim(
                        ring, phi.target.gen_degrees(j - m - n), g + tau + upsilon
                    )
                    cols.append(np.concatenate([x_part, zeros(z_dim, 1, p)[:, 0]]))
                for b, h in enumerate(phi.target.gen_degrees(j - n)):
                    comp = psi.component(j - n)
                    piece = comp.columns[b]
                    z_part = (int(s2) * piece) % p
                    x_dim = freemod.component_dim(ring, x_tgt, h + upsilon)
                    cols.append(np.concatenate([zeros(x_dim, 1, p)[:, 0], z_part]))
                column_lists.append(cols)
            cand = ChainMap.from_columns(cone_cx, cone_cx, m, upsilon, column_lists)
            if cand.verify():
                return cand
    raise SyzkitError("no sign choice makes the induced cone map a chain map")


# -- minimization -----------------------------------------------------------


def minimize_complex(cx):
    """Split off acyclic rank-one summands at unit differential entries.

    Deterministic: always eliminates the first unit entry (smallest
    homological degree, then row, then column).  Returns a new complex.
    """
    ring = cx.ring
    p = ring.char
    gens = [list(g) for g in cx.gens]
    mats = [None] + [
        cx.diff(j).to_poly_matrix() if cx.diff(j) is not None and cx.diff(j).source_degrees
        else [] for j in range(1, cx.window + 1)
    ]

    def unit_entry(j):
        mat = mats[j]
        if not mat:
            return None
        zero_exp = tuple([0] * len(ring.vars))
        for r in range(len(mat)):
            for c in range(len(mat[0]) if mat else 0):
                u = mat[r][c].get(zero_exp, 0) % p
                if u:
                    return r, c, u
        return None

    changed = True
    while changed:
        changed = False
        for j in range(1, len(mats)):
            hit = unit_entry(j)
            if hit is None:
                continue
            r, c, u = hit
            uinv = pow(u, -1, p)
            mat = mats[j]
            nrows, ncols = len(mat), len(mat[0])
            new = []
            for a in range(nrows):
                if a == r:
                    continue
                row = []
                for b in range(ncols):
                    if b == c:
                        continue
                    corr = poly_scale(poly_mul(mat[a][c], mat[r][b], p), -uinv, p)
                    row.append(poly_add(mat[a][b], corr, p))
                new.append(row)
            mats[j] = new
            if j + 1 < len(mats) and mats[j + 1]:
                mats[j + 1] = [row for a, row in enumerate(mats[j + 1]) if a != c]
                if mats[j + 1] and not mats[j + 1][0]:
                    mats[j + 1] = []
            if j - 1 >= 1 and mats[j - 1]:
                mats[j - 1] = [
                    [e for b, e in enumerate(row) if b != r] for row in mats[j - 1]
                ]
                if mats[j - 1] and not mats[j - 1][0]:
                    mats[j - 1] = []
            del gens[j][c]
            del gens[j - 1][r]
            changed = True
            break

    new_gens = [tuple(g) for g in gens]
    diffs = [None]
    for j in range(1, len(mats)):
        if not new_gens[j] or not mats[j] or not new_gens[j - 1]:
            diffs.append(freemod.FreeMap.zero(ring, new_gens[j], new_gens[j - 1]))
        else:
            diffs.append(
                freemod.FreeMap.from_poly_matrix(
                    ring, new_gens[j - 1], new_gens[j], mats[j]
                )
            )
    out = FreeComplex(ring, new_gens, diffs)
    if not out.verify():
        raise SyzkitError("minimization broke the differential")
    return out


def coker_module(cx, level=0):
    """The cokernel of d_{level+1} as a presented module."""
    gens = cx.gen_degrees(level)
    rels = []
    d = cx.diff(level + 1)
    if d is not None and d.source_degrees:
        rels = [(g, col.copy()) for g, col in zip(d.source_degrees, d.columns)]
    return GradedModule(cx.ring, gens, rels)
