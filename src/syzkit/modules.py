"""Finitely presented graded modules with degreewise bases.

A module is a cokernel of a map into a graded free module: generator
degrees plus homogeneous relation columns.  Every degree component M_d is
realized as a quotient of the free component by the span of all ring
multiples of the relations, with a deterministic coordinate basis
(non-pivot coordinates) and a projection matrix.  The ring action is
recovered degreewise through representatives.
"""

import numpy as np

from . import freemod
from .errors import DegreeBoundError, HomogeneityError, SyzkitError
from .linalg import (
    coset_complement,
    hstack,
    matmul,
    matvec,
    quotient_projection,
    rank,
    solve,
    zeros,
)
from .polynomials import poly_degree


class GradedModule:
    def __init__(self, ring, gen_degrees, relations):
        """relations: list of (degree, coordinate vector over the free
        component of gen_degrees at that degree)."""
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        self.relations = list(relations)
        for d, v in self.relations:
            want = freemod.component_dim(ring, self.gen_degrees, d)
            if v.shape[0] != want:
                raise SyzkitError("relation vector has wrong length")
        self._spaces = {}
        self._action = {}
        self._mingens = None

    # -- degreewise structure --------------------------------------------

    def _relation_span(self, d):
        """Columns: every ring multiple of every relation landing in degree d."""
        rels = freemod.FreeMap(
            self.ring, [e for e, _ in self.relations], self.gen_degrees,
            [v for _, v in self.relations],
        )
        return rels.induced(d)

    def _space(self, d):
        if d not in self._spaces:
            amb = freemod.component_dim(self.ring, self.gen_degrees, d)
            if amb == 0:
                self._spaces[d] = ([], zeros(0, 0, self.ring.char))
            else:
                span = self._relation_span(d)
                self._spaces[d] = quotient_projection(span, amb, self.ring.char)
        return self._spaces[d]

    def dim(self, d):
        # generator degrees may be negative (twisted cone cokernels)
        if not self.gen_degrees or d < min(self.gen_degrees):
            return 0
        return len(self._space(d)[0])

    def dims(self, dmax):
        return [self.dim(d) for d in range(dmax + 1)]

    def min_degree(self):
        return min(self.gen_degrees) if self.gen_degrees else 0

    def proj(self, d):
        """Projection from free component coordinates onto M_d coordinates."""
        return self._space(d)[1]

    def action_matrix(self, e, j, a):
        """Multiplication by the j-th basis monomial of R_e: M_a -> M_{a+e}."""
        key = (e, j, a)
        if key not in self._action:
            ring = self.ring
            # representatives of M_a are the standard coordinates _space(a)[0]
            # (ascending); multiply only those, one ring.mult_map block per generator
            reps = np.asarray(self._space(a)[0], dtype=np.intp)
            so = freemod.component_offsets(ring, self.gen_degrees, a)
            to = freemod.component_offsets(ring, self.gen_degrees, a + e)
            mult = zeros(to[-1], len(reps), ring.char)
            for b, g in enumerate(self.gen_degrees):
                lo, hi = np.searchsorted(reps, (so[b], so[b + 1]))
                if lo < hi and to[b] < to[b + 1]:
                    block = ring.mult_map(e, j, a - g)
                    mult[to[b]:to[b + 1], lo:hi] = block[:, reps[lo:hi] - so[b]]
            self._action[key] = matmul(self.proj(a + e), mult, ring.char)
        return self._action[key]

    def action_by_ring_vector(self, rvec, e, a):
        """Multiplication by an element of R_e given in coordinates."""
        p = self.ring.char
        out = zeros(self.dim(a + e), self.dim(a), p)
        for j in np.nonzero(rvec)[0]:
            out = (out + int(rvec[j]) * self.action_matrix(e, int(j), a)) % p
        return out

    # -- generators --------------------------------------------------------

    def minimal_generators(self):
        """Deterministic minimal generating data: list of (degree, M_d vector).

        Chosen degree-ascending as the standard-coordinate complement of
        R_1 * M_{d-1} inside M_d.
        """
        if self._mingens is None:
            degs = self.gen_degrees
            self._mingens = minimal_generators_in(self, min(degs), max(degs)) if degs else []
        return self._mingens

    def is_zero(self):
        return not self.minimal_generators()

    def lift_element(self, d, vec):
        """Free-cover coordinates of an element of M_d (free coords set to 0)."""
        x = solve(self.proj(d), vec, self.ring.char)
        if x is None:
            raise SyzkitError("element lift failed; projection not surjective?")
        return x

    def shifted(self, delta):
        """Same module with all generator degrees moved up by delta."""
        gens = tuple(g + delta for g in self.gen_degrees)
        rels = [(d + delta, v.copy()) for d, v in self.relations]
        return GradedModule(self.ring, gens, rels)

    def socle_dim(self, d):
        """Dimension of the degree-d part killed by every variable."""
        n = self.dim(d)
        if n == 0:
            return 0
        blocks = [self.action_matrix(1, j, d) for j in range(self.ring.dim(1))]
        if not blocks:
            return n
        stacked = np.concatenate(blocks, axis=0)
        return n - rank(stacked, self.ring.char)

    def annihilated_by(self, f, d):
        """True when multiplication by the polynomial f kills all of M_d."""
        e = poly_degree(f)
        if e is None:
            return True
        rvec = self.ring.normal_form(f, degree=e)
        return not self.action_by_ring_vector(rvec, e, d).any()


def minimal_generators_in(space, lo, hi):
    """Minimal generators of a graded space in degrees lo..hi, ascending.

    `space` needs `.ring`, `.dim(d)` and `.action_matrix(e, j, a)`.  In each
    degree the standard-coordinate complement of R_1 * X_{d-1} inside X_d is
    taken; returns a list of (degree, X_d vector).
    """
    ring = space.ring
    out = []
    for d in range(lo, hi + 1):
        n = space.dim(d)
        if n == 0:
            continue
        blocks = [space.action_matrix(1, j, d - 1) for j in range(ring.dim(1))]
        comp = coset_complement(hstack(blocks, n, ring.char), n, ring.char)
        out.extend((d, comp[:, k]) for k in range(comp.shape[1]))
    return out


def generator_matrix(space, gens, d):
    """Degree-d matrix of the free cover on gens = [(degree, vector)].

    Column (b, j) is the j-th basis monomial of R_{d - g_b} acting on the
    b-th generator; rows are the coordinates of X_d.  `space` needs
    `.ring`, `.dim(d)` and `.action_matrix(e, j, a)`.
    """
    ring = space.ring
    degs = [g for g, _ in gens]
    rows = space.dim(d)
    mat = zeros(rows, freemod.component_dim(ring, degs, d), ring.char)
    offs = freemod.component_offsets(ring, degs, d)
    for b, (g, w) in enumerate(gens):
        de = ring.dim(d - g)
        if not de:
            continue
        # all monomials of R_{d-g} at once: one product with the stacked actions
        stacked = np.concatenate([space.action_matrix(d - g, j, g) for j in range(de)])
        mat[:, offs[b]:offs[b + 1]] = matvec(stacked, w, ring.char).reshape(de, rows).T
    return mat


def module_from_presentation(ring, gen_degrees, relation_columns):
    """Build a module from polynomial relation columns.

    Each column is a list of polynomial dicts, one entry per generator;
    entry degrees + generator degrees must agree across the column.
    """
    gens = tuple(gen_degrees)
    rels = []
    for col in relation_columns:
        if len(col) != len(gens):
            raise SyzkitError(
                f"relation column has {len(col)} entries for {len(gens)} generators"
            )
        rdeg = None
        for f, g in zip(col, gens):
            fd = poly_degree(f)
            if fd is None:
                continue
            if rdeg is None:
                rdeg = fd + g
            elif rdeg != fd + g:
                raise HomogeneityError(
                    f"relation column mixes degrees {rdeg} and {fd + g}"
                )
        if rdeg is None:
            continue  # zero column
        if rdeg > ring.degree_bound:
            raise DegreeBoundError(rdeg, ring.degree_bound, "relation degree")
        vec = zeros(freemod.component_dim(ring, gens, rdeg), 1, ring.char)[:, 0]
        offs = freemod.component_offsets(ring, gens, rdeg)
        for s, f in enumerate(col):
            if f:
                vec[offs[s]:offs[s + 1]] = ring.normal_form(f, degree=rdeg - gens[s])
        rels.append((rdeg, vec))
    return GradedModule(ring, gens, rels)


def module_from_strings(ring, gen_degrees, relation_columns):
    cols = [[ring.base.parse(s) for s in col] for col in relation_columns]
    return module_from_presentation(ring, gen_degrees, cols)


def free_module(ring, gen_degrees=(0,)):
    return GradedModule(ring, tuple(gen_degrees), [])


def residue_field(ring):
    """k = R / (all variables)."""
    cols = [[{tuple(1 if i == v else 0 for i in range(len(ring.vars))): 1}]
            for v in range(len(ring.vars))]
    return module_from_presentation(ring, (0,), cols)


def ambient_ring(r):
    """The quotient's polynomial ring viewed as a trivial quotient (cached)."""
    if getattr(r, "_ambient", None) is None:
        from .rings import build_quotient

        r._ambient = build_quotient(r.base, [])
    return r._ambient


def lift_presentation(m):
    """View a module over R = S/I as a module over S.

    Same generators; relations are the original columns (with entries read
    as polynomials through the chosen monomial representatives) plus
    I * e_s for every generator and every ideal generator.
    """
    r = m.ring
    s_ring = ambient_ring(r)
    gens = m.gen_degrees
    rels = []
    for d, v in m.relations:
        col = []
        offs = freemod.component_offsets(r, gens, d)
        for idx, g in enumerate(gens):
            col.append(r.vector_to_poly(v[offs[idx]:offs[idx + 1]], d - g))
        rels.append(col)
    nz = len(gens)
    for ideal_gen in r.ideal_gens:
        for s in range(nz):
            col = [{} for _ in range(nz)]
            col[s] = ideal_gen
            rels.append(col)
    return module_from_presentation(s_ring, gens, rels)


def tensor_presentation(m, n):
    """Presentation of M tensor N over their common ring."""
    if not m.ring.same_ring(n.ring):
        raise SyzkitError("tensor product needs a common ring")
    ring = m.ring
    gens = tuple(g + h for g in m.gen_degrees for h in n.gen_degrees)
    nn = len(n.gen_degrees)
    rels = []
    for e, v in m.relations:
        offs = freemod.component_offsets(ring, m.gen_degrees, e)
        for t, h in enumerate(n.gen_degrees):
            d = e + h
            vec = zeros(freemod.component_dim(ring, gens, d), 1, ring.char)[:, 0]
            poffs = freemod.component_offsets(ring, gens, d)
            for s, g in enumerate(m.gen_degrees):
                pair = s * nn + t
                vec[poffs[pair]:poffs[pair + 1]] = v[offs[s]:offs[s + 1]]
            rels.append((d, vec))
    for e, v in n.relations:
        offs = freemod.component_offsets(ring, n.gen_degrees, e)
        for s, g in enumerate(m.gen_degrees):
            d = e + g
            vec = zeros(freemod.component_dim(ring, gens, d), 1, ring.char)[:, 0]
            poffs = freemod.component_offsets(ring, gens, d)
            for t, h in enumerate(n.gen_degrees):
                pair = s * nn + t
                vec[poffs[pair]:poffs[pair + 1]] = v[offs[t]:offs[t + 1]]
            rels.append((d, vec))
    return GradedModule(ring, gens, rels)


class ModuleMap:
    """Map of modules given by free-cover coordinates of generator images."""

    def __init__(self, source, target, columns, twist=0):
        self.source = source
        self.target = target
        self.twist = twist
        self.columns = columns  # per source gen: vector over target free component
        for b, g in enumerate(source.gen_degrees):
            want = freemod.component_dim(target.ring, target.gen_degrees, g + twist)
            if columns[b].shape[0] != want:
                raise SyzkitError("module map column has wrong length")
        self._free = freemod.FreeMap(
            source.ring, source.gen_degrees, target.gen_degrees, columns, twist
        )

    def induced(self, d):
        """Numeric matrix M_d -> N_{d+twist}."""
        t = self.target
        reps = self._free.induced(d)[:, self.source._space(d)[0]]
        return matmul(t.proj(d + self.twist), reps, t.ring.char)

    def verify(self):
        """Check the map kills every relation of the source (well-defined)."""
        t = self.target
        for d, v in self.source.relations:
            img = self._free.apply(d, v)
            if matmul(t.proj(d + self.twist), img.reshape(-1, 1), t.ring.char).any():
                return False
        return True


def verify_ses(f, g, dmax):
    """Degreewise exactness of 0 -> A -f-> B -g-> C -> 0 up to degree dmax.

    Returns (ok, first_failure_description)."""
    a, b, c = f.source, f.target, g.target
    p = a.ring.char
    if g.source is not b:
        return False, "maps are not composable"
    d_lo = min([0, a.min_degree(), b.min_degree(), c.min_degree()])
    for d in range(d_lo, dmax + 1):
        fd = f.induced(d)
        gd = g.induced(d + f.twist)
        if matmul(gd, fd, p).any():
            return False, f"composite nonzero in degree {d}"
        da, db, dc = a.dim(d), b.dim(d + f.twist), c.dim(d + f.twist + g.twist)
        if db != da + dc:
            return False, f"dimension mismatch in degree {d}: {db} != {da}+{dc}"
        if rank(fd, p) != da:
            return False, f"left map not injective in degree {d}"
        if rank(gd, p) != dc:
            return False, f"right map not surjective in degree {d}"
    return True, ""
