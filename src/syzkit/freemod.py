"""Graded free modules over a truncated quotient ring and maps between them.

A free module is just a tuple of generator degrees; its degree-d component
has the basis {(generator b, basis monomial of R_{d - g_b})}, laid out
block-by-generator.  A ``FreeMap`` of twist t sends the generator b to a
homogeneous element of the target component in degree g_b + t.  Columns
determine the map; induced matrices on degree components are assembled
from the ring's multiplication tables on demand.

Most columns are zero on most target generators (the maps of the tensor
and cone construction are sparse in blocks), so a map keeps only its
columns' nonzero blocks: per pair (g, h) of a source and a target
generator degree, the read-only pieces of the columns of degree g on the
target generators of degree h, stacked as the rows of one matrix, with
their generators, in order of the source generator.  Records
(bs, cs, stack) are the one form in which a map is built and read: the
constructor takes them, and `FreeMap.records` hands the stored groups out,
moved to other generators and signed.  The cone and the maps induced on
it, minimisation, `restrict`, module relations and a factor map carried
into a product ring move whole records; the tensor product and its
induced maps place their embedded pieces by label, one record per pair of
degrees.  `from_dense`, `selection`, `zero` and `from_poly_matrix` are
thin producers of records; `from_poly_matrix` writes the polynomial
entries of each degree at the ring's monomial positions and normal-forms
them all with one product.  `compose` works from both maps' stacks; no
dense column leaves a map.  A module's augmentation, the free cover of a
resolution, is such a map too.

This module owns the block layout of a component.  `induced` is the one
builder of a map's matrix, over R or tensored with a module: F over R,
F (x) N, Hom(F, N) (through `FreeMap.dual`) and the Koszul complex over M
come from it.  It also builds given rows alone, as the syzygy step reads
its matrices on a kernel's free rows: above `_GATHER_MIN_CELLS` cells they
are gathered from the nonzeros of X's stacks (5% dense on 4-variable
quadric rings), no product formed; below it, as in the step's many small
selections (median 40 cells), the gather's index work costs more than the
whole product, whose rows are taken.  `block_matrix` writes the free
sums of `act` and the chain system, and `FreeMap.selection` builds the
maps that send generators to generators, so no other module writes at
`component_offsets`.  It also owns the ring action on free sums: `act` multiplies chains of a free
sum of copies of R or of a module N by all of R_e, and serves a module's
action matrices, the free cover of Tor_i and R's action on F_i (x) N.

`FreeMap.compose` is the one composite of maps: it returns the composite
degree by degree, as the matrices of images of the inner map's columns,
not as a map.  It joins the two maps' pieces on the middle generators and
multiplies each joined pair of stacks once, so no dense matrix of either
map is built.  The checks (d o d = 0, the chain condition, commutation,
exactness) read those matrices and build no map.
"""

from itertools import accumulate

import numpy as np

from .errors import DegreeBoundError, HomogeneityError, SyzkitError
from .linalg import identity, matmul, rank, zeros
from .polynomials import poly_degree


def component_offsets(space, gen_degrees, d):
    """Start of each generator's block in the degree-d component of the free
    sum of X(-g), then the component's dimension, for X = `space`, the ring
    or a graded module; memoised in X."""
    key = (tuple(gen_degrees), d)
    offs = space.offsets_memo.get(key)
    if offs is None:
        offs = [0]
        for g in key[0]:
            offs.append(offs[-1] + space.dim(d - g))
        offs = space.offsets_memo[key] = tuple(offs)
    return offs


def component_dim(space, gen_degrees, d):
    return component_offsets(space, gen_degrees, d)[-1]


def block_matrix(row_sizes, col_sizes, blocks):
    """The matrix with row blocks of sizes row_sizes and column blocks of
    sizes col_sizes whose block (r, c) is blocks[(r, c)], and zero on every
    block that blocks does not name."""
    ro, co = [0, *accumulate(row_sizes)], [0, *accumulate(col_sizes)]
    out = zeros(ro[-1], co[-1])
    for (r, c), block in blocks.items():
        out[ro[r]:ro[r + 1], co[c]:co[c + 1]] = block
    return out


def act(ring, dim, stacks, gen_degrees, e, a, x):
    """Every basis monomial of R_e times the columns x of the degree-a
    component of the free sum of X(-g_b): the matrix over its degree-(a+e)
    component, with columns (j, x).

    X is R (dim, stacks = ring.dim, ring.mult_maps) or a graded module
    (its dim and action_matrix); R acts on each generator's block by X's
    stack stacks(e, a - g_b), so each block takes one exact product."""
    de, r = ring.dim(e), x.shape[1]
    so = [0, *accumulate(dim(a - g) for g in gen_degrees)]
    to = [0, *accumulate(dim(a + e - g) for g in gen_degrees)]
    blocks = {}
    for b, g in enumerate(gen_degrees):
        rows = to[b + 1] - to[b]
        if not de or not rows or so[b] == so[b + 1]:
            continue
        stack = stacks(e, a - g).transpose(1, 0, 2)  # target row, monomial, source
        prod = matmul(stack.reshape(rows * de, so[b + 1] - so[b]), x[so[b]:so[b + 1]],
                      ring.char)
        blocks[(b, 0)] = prod.reshape(rows, de * r)
    return block_matrix([hi - lo for lo, hi in zip(to, to[1:])], [de * r], blocks)


def free_mult_matrix(ring, gen_degrees, e, j, d):
    """Multiplication by the j-th basis monomial of R_e on the degree-d component."""
    blocks = {(b, b): ring.mult_map(e, j, d - g) for b, g in enumerate(gen_degrees)}
    return block_matrix([ring.dim(d + e - g) for g in gen_degrees],
                        [ring.dim(d - g) for g in gen_degrees], blocks)


def records_of(source_degrees, target_degrees, placed):
    """The records of pieces placed one at a time: (b, c, piece) triples, in
    order of b, as one record per pair of generator degrees, whose stack is
    the list of its pieces."""
    found = {}
    for b, c, piece in placed:
        found.setdefault((source_degrees[b], target_degrees[c]), []).append((b, c, piece))
    return [tuple(zip(*recs)) for recs in found.values()]


_GATHER_MIN_CELLS = 20000  # rows of a smaller component are taken from the whole product


def _gather(out, picked, bs, cs, stack, mults, p):
    """Write the pieces (bs, cs, stack), acting through X's stack mults, on
    the rows `picked` of out, from the nonzeros of mults only (`induced`)."""
    rows, by_gen, gens, toffs, soffs = picked
    lo = gens.searchsorted(cs)
    n = gens.searchsorted(cs, "right") - lo
    k = np.arange(len(cs)).repeat(n)  # pair (i, k): row i of out lies on piece k's generator
    i = by_gen[np.arange(k.size) + (lo + n - n.cumsum()).repeat(n)]
    j = rows[i] - toffs[cs[k]]  # row i in the block of its generator
    by_row = mults.transpose(1, 2, 0)
    nz = np.nonzero(by_row)  # by (row, column, monomial): the terms of an entry are adjacent
    start = nz[0].searchsorted(np.arange(by_row.shape[0] + 1))
    n = start[j + 1] - start[j]
    pair = np.arange(len(j)).repeat(n)  # term t: pair[t] meets nonzero t_nz[t] on its row
    t_nz = np.arange(pair.size) + (start[j] + n - n.cumsum()).repeat(n)
    kp = k[pair]
    terms = stack.reshape(-1)[kp * stack.shape[1] + nz[2][t_nz]] * by_row[nz][t_nz] % p
    at = i[pair] * out.shape[1] + soffs[bs[kp]] + nz[1][t_nz]
    first = np.flatnonzero(np.diff(at, prepend=-1))
    out.reshape(-1)[at[first]] = np.add.reduceat(terms, first) % p


class FreeMap:
    """Homogeneous map between graded free modules, given on generators by
    records (bs, cs, stack): row k of stack is the piece of column bs[k] on
    target generator cs[k], a coordinate vector over R_{g_b + twist - h_c},
    and a column is zero on every generator that no record names.  A record
    lies in one pair of generator degrees and names each (b, c) at most
    once; a pair may have several records, in any order, and a stack may
    be an array or a sequence of pieces.  The map keeps the arrays it is
    given, read-only, and drops zero pieces."""

    def __init__(self, ring, source_degrees, target_degrees, records, twist=0):
        self.ring = ring
        self.source_degrees = tuple(source_degrees)
        self.target_degrees = tuple(target_degrees)
        self.twist = twist
        self._groups = {}
        found = {}
        for bs, cs, stack in records:
            bs, cs = np.asarray(bs, dtype=np.intp), np.asarray(cs, dtype=np.intp)
            if not len(bs) == len(cs) == len(stack):
                raise SyzkitError(f"a record names {len(bs)} source generators and "
                                  f"{len(cs)} target generators for {len(stack)} pieces")
            if not len(bs):
                continue
            ids, tids = bs.tolist(), cs.tolist()
            for what, idx, gens in (("source", ids, self.source_degrees),
                                    ("target", tids, self.target_degrees)):
                lo, hi = min(idx), max(idx)
                if lo < 0 or hi >= len(gens):
                    raise SyzkitError(f"a record names {what} generator {lo if lo < 0 else hi}, "
                                      f"out of range for {len(gens)} {what} generators")
            degs = {self.source_degrees[i] for i in ids}, {self.target_degrees[c] for c in tids}
            if len(degs[0]) > 1 or len(degs[1]) > 1:
                raise SyzkitError("a record mixes generators of different degrees")
            if ids != sorted(ids):
                order = bs.argsort(kind="stable")
                bs, cs = bs[order], cs[order]
                stack = [stack[k] for k in order.tolist()]
            found.setdefault((*degs[0], *degs[1]), []).append((bs, cs, stack))
        # per pair (g, h): join the records in order of bs (which `compose`
        # searches), check the length of the pieces once, drop zero rows
        for (g, h), recs in found.items():
            want = ring.dim(g + twist - h)
            bs, cs, stacks = zip(*recs)
            bs, cs = (np.concatenate(x) if len(recs) > 1 else x[0] for x in (bs, cs))
            try:
                stack = (np.concatenate([np.asarray(s, dtype=np.int64) for s in stacks])
                         if len(recs) > 1 else np.asarray(stacks[0], dtype=np.int64))
            except ValueError:  # ragged pieces
                stack = None
            if stack is None or stack.shape != (len(bs), want):
                rows = [row for s in stacks for row in s]
                for b, c, row in zip(bs.tolist(), cs.tolist(), rows):
                    if np.shape(row) != (want,):
                        raise SyzkitError(f"column {b} has a block on generator {c} of "
                                          f"length {np.size(row)}, expected {want}")
                stack = np.array(rows, dtype=np.int64)  # raises on entries that are not integers
            if len(recs) > 1:
                order = bs.argsort(kind="stable")
                bs, cs, stack = bs[order], cs[order], stack[order]
            nonzero = stack.any(axis=1)
            if not nonzero.all():
                bs, cs, stack = bs[nonzero], cs[nonzero], stack[nonzero]
            if len(stack):
                for x in (bs, cs, stack):
                    x.flags.writeable = False
                self._groups.setdefault(g, []).append((h, bs, cs, stack))

    @classmethod
    def from_dense(cls, ring, source_degrees, target_degrees, columns, twist=0):
        """The map whose column b is the vector columns[b] over the target
        component in degree g_b + twist.  One vectorised pass over the
        stacked columns of each source degree finds their nonzero blocks,
        and one gather per target degree makes their record."""
        if len(columns) != len(source_degrees):
            raise SyzkitError(f"{len(columns)} columns for {len(source_degrees)} "
                              f"source generators")
        tdegs = np.array(target_degrees, dtype=np.int64)
        by_degree, records = {}, []
        for b, g in enumerate(source_degrees):
            by_degree.setdefault(g, []).append(b)
        for g, bs in by_degree.items():
            offs = np.array(component_offsets(ring, target_degrees, g + twist))
            for b in bs:
                if columns[b].shape[0] != offs[-1]:
                    raise SyzkitError(f"column {b} has length {columns[b].shape[0]}, "
                                      f"expected {offs[-1]}")
            cs = np.flatnonzero(offs[:-1] < offs[1:])  # blocks of positive length
            if not cs.size:
                continue
            stacked = np.stack([columns[b] for b in bs], dtype=np.int64)
            hit = np.logical_or.reduceat(stacked != 0, offs[cs], axis=1)
            for h in np.unique(tdegs[cs]).tolist():
                ks, i = np.nonzero(hit & (tdegs[cs] == h))
                at = offs[cs[i]][:, None] + np.arange(ring.dim(g + twist - h))
                records.append((np.array(bs)[ks], cs[i], stacked[ks[:, None], at]))
        return cls(ring, source_degrees, target_degrees, records, twist)

    @classmethod
    def selection(cls, ring, source_degrees, target_degrees, targets, twist=0):
        """The map sending generator b to generator targets[b], or to 0 when
        targets[b] is None; the two must sit in degrees g_b + twist and
        g_{targets[b]}."""
        placed = [(b, c, (1,)) for b, c in enumerate(targets) if c is not None]
        for b, c, _ in placed:
            if target_degrees[c] != source_degrees[b] + twist:
                raise SyzkitError(f"generator {b} in degree {source_degrees[b] + twist} cannot "
                                  f"go to generator {c} in degree {target_degrees[c]}")
        return cls(ring, source_degrees, target_degrees,
                   records_of(source_degrees, target_degrees, placed), twist)

    @classmethod
    def zero(cls, ring, source_degrees, target_degrees, twist=0):
        return cls(ring, source_degrees, target_degrees, (), twist)

    @classmethod
    def from_poly_matrix(cls, ring, target_degrees, source_degrees, entries, twist=0):
        """Build from a matrix of polynomial dicts (rows: target gens).  The
        entries of each degree e are written, reduced mod p, as the columns
        of one matrix over the monomials of S_e and normal-formed by one
        product with `ring.nf_matrix(e)`."""
        base, bound, p = ring.base, ring.degree_bound, ring.char
        found, by_degree = [], {}
        for b, g in enumerate(source_degrees):
            for c, h in enumerate(target_degrees):
                f = entries[c][b]
                if not f:
                    continue
                fd = poly_degree(f)
                if fd != g + twist - h:
                    raise HomogeneityError(
                        f"entry ({c},{b}) has degree {fd}, expected {g + twist - h}"
                    )
                if fd > bound:
                    raise DegreeBoundError(fd, bound, "normal form")
                polys = by_degree.setdefault(fd, [])
                found.append((b, c, fd, len(polys)))
                polys.append(f)
        forms = {}
        for e, polys in by_degree.items():
            exps, cols, values = zip(*[(m, k, v % p) for k, f in enumerate(polys)
                                       for m, v in f.items()])
            x = zeros(base.dim(e), len(polys))
            x[base.monomial_positions(np.array(exps, dtype=np.int64), e), cols] = values
            forms[e] = matmul(ring.nf_matrix(e), x, p).T
        placed = [(b, c, forms[e][k]) for b, c, e, k in found]
        return cls(ring, source_degrees, target_degrees,
                   records_of(source_degrees, target_degrees, placed), twist)

    def to_poly_matrix(self):
        out = [[{} for _ in self.source_degrees] for _ in self.target_degrees]
        for g, groups in self._groups.items():
            for h, bs, cs, stack in groups:
                for b, c, piece in zip(bs.tolist(), cs.tolist(), stack):
                    out[c][b] = self.ring.vector_to_poly(piece, g + self.twist - h)
        return out

    def records(self, sources=0, targets=0, scale=1):
        """The map's stored groups (bs, cs, stack), as the constructor takes
        them, with every source generator moved by sources, every target
        generator by targets and every piece times scale (mod p)."""
        p, scale = self.ring.char, scale % self.ring.char
        return [(bs + sources if sources else bs, cs + targets if targets else cs,
                 stack if scale == 1 else stack * scale % p)
                for groups in self._groups.values() for _, bs, cs, stack in groups]

    def restrict(self, sources, targets):
        """The map from source generators `sources` to target generators
        `targets`, both lists of distinct indices: the records of the kept
        columns, renumbered.  Every kept column must vanish on the target
        generators that are dropped."""
        sources, targets = list(sources), list(targets)
        new_b = np.full(len(self.source_degrees), -1, dtype=np.intp)
        new_b[sources] = np.arange(len(sources))
        new_c = np.full(len(self.target_degrees), -1, dtype=np.intp)
        new_c[targets] = np.arange(len(targets))
        records = []
        for bs, cs, stack in self.records():
            nb = new_b[bs]
            kept = nb >= 0
            if not kept.all():
                bs, nb, cs, stack = bs[kept], nb[kept], cs[kept], stack[kept]
            nc = new_c[cs]
            lost = nc < 0
            if lost.any():
                raise SyzkitError(f"generator {bs[lost][0]} maps onto dropped generator "
                                  f"{cs[lost][0]}")
            records.append((nb, nc, stack))
        return FreeMap(self.ring, [self.source_degrees[b] for b in sources],
                       [self.target_degrees[c] for c in targets], records, self.twist)

    def dual(self):
        """Hom(self, R): each record's generators swapped and both degree
        lists negated, so that Hom(self, N) in degree w is
        `self.dual().induced(w, N)`."""
        return FreeMap(self.ring, [-h for h in self.target_degrees],
                       [-g for g in self.source_degrees],
                       [(cs, bs, stack) for bs, cs, stack in self.records()], self.twist)

    def induced(self, d, over=None, rows=None):
        """Numeric matrix of self (x) X in degree d, X = R or the graded
        module `over`, or its rows `rows` only, in that order.  Generator g
        carries X_{d - g}; block (c, b) is the piece of column b on c, in
        R_e, acting on X_{d - g_b}.  Each pair of generator degrees takes
        one exact product of its stacked pieces with X's stack
        (`ring.mult_maps` or `over.action_matrix`) at (e, d - g); a scalar
        piece (e = 0) is the scalar times the identity.  The rows of a
        component of more than `_GATHER_MIN_CELLS` cells form no product:
        `_gather` meets each row's pieces with X's nonzeros on that row."""
        ring, tw = self.ring, self.twist
        space, acts = (ring, ring.mult_maps) if over is None else (over, over.action_matrix)
        soffs = component_offsets(space, self.source_degrees, d)
        toffs = component_offsets(space, self.target_degrees, d + tw)
        gather = rows is not None and toffs[-1] * soffs[-1] > _GATHER_MIN_CELLS
        mat = zeros(len(rows) if gather else toffs[-1], soffs[-1])
        if gather:
            rows = np.asarray(rows, dtype=np.intp)
            on = np.searchsorted(toffs, rows, "right") - 1  # each row's target generator
            by_gen = on.argsort(kind="stable")
            picked = (rows, by_gen, on[by_gen], np.array(toffs), np.array(soffs))
        for g, groups in self._groups.items():
            cols = space.dim(d - g)
            for h, bs, cs, stack in groups:
                e, size = g + tw - h, space.dim(d + tw - h)
                if not (cols and size):
                    continue
                mults = identity(cols)[None] if e == 0 else acts(e, d - g)  # R_0 = k
                if gather:
                    _gather(mat, picked, bs, cs, stack, mults, ring.char)
                    continue
                prod = (stack[:, :, None] * mults if e == 0 else matmul(
                    stack, mults.reshape(-1, size * cols), ring.char).reshape(len(bs), size, cols))
                for k, (b, c) in enumerate(zip(bs.tolist(), cs.tolist())):
                    mat[toffs[c]:toffs[c] + size, soffs[b]:soffs[b] + cols] = prod[k]
        return mat if gather or rows is None else mat[rows]

    def compose(self, other):
        """self after other (source of self = target of other), degree by
        degree: a list of (bs, images), one per degree d that other's
        columns lie in, with bs the tuple of other's source generators whose
        columns lie in degree d and images the matrix whose column k is self
        applied to column bs[k], over self's target component in degree
        d + self.twist.  The composite is not made into a map.

        Each piece of other's column b on a middle generator c, over R_a,
        meets the pieces of self's column c, found by a search in self's
        stack (in order of c).  One exact product of ring.mult_maps(a, e)
        with that stack gives every monomial of R_a times its pieces; the
        entries of other's piece scale these, each product reduced mod p
        before the sum over the monomials (so no sum overflows int64 below
        p = 2^31), and the sums are added at the target offsets.
        """
        if self.source_degrees != other.target_degrees:
            raise SyzkitError(
                f"cannot compose: source {self.source_degrees} is not the target "
                f"{other.target_degrees}"
            )
        ring, p = self.ring, self.ring.char
        by_degree = {}
        for b, g in enumerate(other.source_degrees):
            by_degree.setdefault(g, []).append(b)
        at = np.zeros(len(other.source_degrees), dtype=np.intp)  # b's place in its degree
        out = []
        for g, bs in by_degree.items():
            d = g + other.twist
            at[bs] = np.arange(len(bs))
            offs = np.array(component_offsets(ring, self.target_degrees, d + self.twist))
            images = zeros(offs[-1], len(bs))
            for h, ibs, ics, inner in other._groups.get(g, ()):
                a = d - h
                for k, sbs, scs, stack in self._groups.get(h, ()):
                    # pair row ii of inner with row si of stack where ics[ii] == sbs[si]
                    lo = sbs.searchsorted(ics)
                    n = sbs.searchsorted(ics, "right") - lo
                    ii = np.arange(len(ics)).repeat(n)
                    rows = ring.dim(d + self.twist - k)
                    if not (rows and ii.size):
                        continue
                    si = np.arange(ii.size) + (lo + n - n.cumsum()).repeat(n)
                    if a == 0:  # R_0 = k: a scalar times the piece
                        terms = stack.T[:, si] * inner[ii, 0] % p
                    else:
                        mults = ring.mult_maps(a, h + self.twist - k)
                        prods = matmul(mults.reshape(-1, stack.shape[1]), stack.T, p)
                        # entry (j, r, m): row r of monomial j of R_a times piece si[m]
                        prods = prods.reshape(-1, rows, len(sbs))[:, :, si]
                        terms = (prods * inner[ii].T[:, None] % p).sum(axis=0)
                    np.add.at(images, (offs[scs[si]] + np.arange(rows)[:, None], at[ibs[ii]]),
                              terms)
            out.append((tuple(bs), images % p))
        return out

    def scalar_block(self):
        """Constant parts: matrix over (target gen, source gen) pairs of equal
        twisted degree.  Entries elsewhere are forced to higher degree."""
        out = zeros(len(self.target_degrees), len(self.source_degrees))
        for g, groups in self._groups.items():
            for h, bs, cs, stack in groups:
                if h == g + self.twist:
                    out[cs, bs] = stack[:, 0]
        return out

    def degreewise_surjective(self):
        """Exact surjectivity test via graded Nakayama: a map of finitely
        generated graded free modules is onto iff it is onto mod the
        irrelevant ideal, i.e. iff the scalar block has full row rank."""
        sb = self.scalar_block()
        return rank(sb, self.ring.char) == len(self.target_degrees)

    def degreewise_isomorphism(self):
        """Onto, between free modules with the same generator degrees."""
        return (sorted(g + self.twist for g in self.source_degrees)
                == sorted(self.target_degrees) and self.degreewise_surjective())
