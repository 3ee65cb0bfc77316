"""Graded free modules over a truncated quotient ring and maps between them.

A free module is just a tuple of generator degrees; its degree-d component
has the basis {(generator b, basis monomial of R_{d - g_b})}, laid out
block-by-generator.  A ``FreeMap`` of twist t sends the generator b to a
homogeneous element of the target component in degree g_b + t, stored as a
coordinate vector.  Columns determine the map; induced matrices on degree
components are assembled from the ring's multiplication tables on demand.
"""

import numpy as np

from .linalg import matmul, zeros


def component_dims(ring, gen_degrees, d):
    return [ring.dim(d - g) for g in gen_degrees]


def component_dim(ring, gen_degrees, d):
    return sum(component_dims(ring, gen_degrees, d))


def component_offsets(ring, gen_degrees, d):
    offs = [0]
    for g in gen_degrees:
        offs.append(offs[-1] + ring.dim(d - g))
    return offs


def free_mult_matrix(ring, gen_degrees, e, j, d):
    """Multiplication by the j-th basis monomial of R_e on the degree-d component."""
    src = component_dim(ring, gen_degrees, d)
    tgt = component_dim(ring, gen_degrees, d + e)
    out = zeros(tgt, src, ring.char)
    so = component_offsets(ring, gen_degrees, d)
    to = component_offsets(ring, gen_degrees, d + e)
    for b, g in enumerate(gen_degrees):
        block = ring.mult_map(e, j, d - g)
        if block.size:
            out[to[b]:to[b + 1], so[b]:so[b + 1]] = block
    return out


class FreeMap:
    """Homogeneous map between graded free modules, given on generators."""

    def __init__(self, ring, source_degrees, target_degrees, columns, twist=0):
        self.ring = ring
        self.source_degrees = tuple(source_degrees)
        self.target_degrees = tuple(target_degrees)
        self.twist = twist
        self.columns = columns  # columns[b]: vector over target component at g_b + twist
        want_by_degree = {}
        for b, g in enumerate(self.source_degrees):
            d = g + twist
            want = want_by_degree.get(d)
            if want is None:
                want = component_dim(ring, self.target_degrees, d)
                want_by_degree[d] = want
            if columns[b].shape[0] != want:
                raise ValueError(
                    f"column {b} has length {columns[b].shape[0]}, expected {want}"
                )

    @classmethod
    def zero(cls, ring, source_degrees, target_degrees, twist=0):
        cols = [
            zeros(component_dim(ring, target_degrees, g + twist), 1, ring.char)[:, 0]
            for g in source_degrees
        ]
        return cls(ring, source_degrees, target_degrees, cols, twist)

    @classmethod
    def identity(cls, ring, gen_degrees):
        cols = []
        degs = tuple(gen_degrees)
        for b, g in enumerate(degs):
            v = zeros(component_dim(ring, degs, g), 1, ring.char)[:, 0]
            offs = component_offsets(ring, degs, g)
            # the unit of R_0 sits at the first coordinate of block b
            v[offs[b]] = 1
            cols.append(v)
        return cls(ring, degs, degs, cols)

    @classmethod
    def from_poly_matrix(cls, ring, target_degrees, source_degrees, entries, twist=0):
        """Build from a matrix of polynomial dicts (rows: target gens)."""
        from .errors import HomogeneityError
        from .polynomials import poly_degree

        tdegs, sdegs = tuple(target_degrees), tuple(source_degrees)
        cols = []
        for b, g in enumerate(sdegs):
            d = g + twist
            vec = zeros(component_dim(ring, tdegs, d), 1, ring.char)[:, 0]
            offs = component_offsets(ring, tdegs, d)
            for c, h in enumerate(tdegs):
                f = entries[c][b]
                if not f:
                    continue
                fd = poly_degree(f)
                if fd != d - h:
                    raise HomogeneityError(
                        f"entry ({c},{b}) has degree {fd}, expected {d - h}"
                    )
                block = ring.normal_form(f, degree=fd)
                vec[offs[c]:offs[c + 1]] = block
            cols.append(vec)
        return cls(ring, sdegs, tdegs, cols, twist)

    def to_poly_matrix(self):
        out = []
        for c, h in enumerate(self.target_degrees):
            row = []
            for b, g in enumerate(self.source_degrees):
                d = g + self.twist
                offs = component_offsets(self.ring, self.target_degrees, d)
                row.append(self.ring.vector_to_poly(
                    self.columns[b][offs[c]:offs[c + 1]], d - h
                ))
            out.append(row)
        return out

    def induced(self, d):
        """Numeric matrix of the degree-d component map.

        Column (b, j) is the j-th basis monomial of R_{d - g_b} times column
        b.  Generators of one source degree share these multiplications, so
        for each pair of source and target generator degrees one exact
        product of the stacked multiplication maps with the matching column
        pieces gives all their entries.
        """
        ring, p, tw = self.ring, self.ring.char, self.twist
        src, tgt = self.source_degrees, self.target_degrees
        mat = zeros(component_dim(ring, tgt, d + tw), component_dim(ring, src, d), p)
        soffs = component_offsets(ring, src, d)
        toffs = component_offsets(ring, tgt, d + tw)
        by_source_degree, by_target_degree = {}, {}
        for b, g in enumerate(src):
            by_source_degree.setdefault(g, []).append(b)
        for c, h in enumerate(tgt):
            by_target_degree.setdefault(h, []).append(c)
        for g, bs in by_source_degree.items():
            e = d - g
            de = ring.dim(e)
            if de == 0 or not mat.shape[0]:
                continue
            if e == 0:
                for b in bs:
                    mat[:, soffs[b]] = self.columns[b]
                continue
            coffs = component_offsets(ring, tgt, g + tw)
            for h, cs in by_target_degree.items():
                a = g + tw - h
                rows = ring.dim(a + e)
                pairs = [(b, c) for b in bs for c in cs
                         if self.columns[b][coffs[c]:coffs[c + 1]].any()]
                if not rows or not pairs:
                    continue
                pieces = np.stack([self.columns[b][coffs[c]:coffs[c + 1]] for b, c in pairs],
                                  axis=1)
                mults = np.concatenate([ring.mult_map(e, j, a) for j in range(de)])
                prod = matmul(mults, pieces, p).reshape(de, rows, len(pairs))
                for k, (b, c) in enumerate(pairs):
                    mat[toffs[c]:toffs[c + 1], soffs[b]:soffs[b] + de] = prod[:, :, k].T
        return mat

    def apply(self, d, vec):
        return matmul(self.induced(d), np.asarray(vec).reshape(-1, 1), self.ring.char)[:, 0]

    def compose(self, other):
        """self after other (source of self = target of other).

        other's columns of one degree d all go through self's degree-d
        matrix, so each degree takes one induced matrix and one product.
        """
        assert self.source_degrees == other.target_degrees
        by_degree = {}
        for b, g in enumerate(other.source_degrees):
            by_degree.setdefault(g + other.twist, []).append(b)
        cols = [None] * len(other.source_degrees)
        for d, bs in by_degree.items():
            images = matmul(self.induced(d), np.stack([other.columns[b] for b in bs], axis=1),
                            self.ring.char)
            for k, b in enumerate(bs):
                cols[b] = images[:, k]
        return FreeMap(
            self.ring, other.source_degrees, self.target_degrees, cols,
            other.twist + self.twist,
        )

    def add(self, other, sign=1):
        assert self.source_degrees == other.source_degrees
        assert self.target_degrees == other.target_degrees
        assert self.twist == other.twist
        p = self.ring.char
        cols = [(a + sign * b) % p for a, b in zip(self.columns, other.columns)]
        return FreeMap(self.ring, self.source_degrees, self.target_degrees, cols, self.twist)

    def scale(self, c):
        p = self.ring.char
        cols = [(a * c) % p for a in self.columns]
        return FreeMap(self.ring, self.source_degrees, self.target_degrees, cols, self.twist)

    def is_zero(self):
        return all(not c.any() for c in self.columns)

    def equals(self, other):
        return (
            self.source_degrees == other.source_degrees
            and self.target_degrees == other.target_degrees
            and self.twist == other.twist
            and all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns))
        )

    def scalar_block(self):
        """Constant parts: matrix over (target gen, source gen) pairs of equal
        twisted degree.  Entries elsewhere are forced to higher degree."""
        p = self.ring.char
        rows, cols = len(self.target_degrees), len(self.source_degrees)
        out = zeros(rows, cols, p)
        if self.ring.dim(0) == 0:
            return out
        offs_by_degree = {}
        matches_by_degree = {}
        for b, g in enumerate(self.source_degrees):
            d = g + self.twist
            if d not in offs_by_degree:
                offs_by_degree[d] = component_offsets(self.ring, self.target_degrees, d)
                matches_by_degree[d] = [
                    c for c, h in enumerate(self.target_degrees) if h == d
                ]
            offs = offs_by_degree[d]
            for c in matches_by_degree[d]:
                out[c, b] = self.columns[b][offs[c]]
        return out

    def has_positive_degree_entries_only(self):
        return not self.scalar_block().any()

    def degreewise_surjective(self):
        """Exact surjectivity test via graded Nakayama: a map of finitely
        generated graded free modules is onto iff it is onto mod the
        irrelevant ideal, i.e. iff the scalar block has full row rank."""
        from .linalg import rank

        sb = self.scalar_block()
        return rank(sb, self.ring.char) == len(self.target_degrees)

    def degreewise_isomorphism(self):
        from .linalg import rank

        if sorted(g + self.twist for g in self.source_degrees) != sorted(self.target_degrees):
            return False
        sb = self.scalar_block()
        return sb.shape[0] == sb.shape[1] and rank(sb, self.ring.char) == sb.shape[0]
