"""Finitely presented graded modules with degreewise bases.

A module is a cokernel of a map into a graded free module: generator
degrees plus the relations, held once, as one `freemod.FreeMap` of twist
0 into the generators whose column r is relation r.  Every degree
component M_d is realized as a quotient of the free component by the
span of all ring multiples of the relations, with a deterministic
coordinate basis (non-pivot coordinates) and a projection matrix.  The
ring action is recovered degreewise through representatives, for all of
R_e at once: `action_matrix(e, a)` is the (dim R_e, dim M_{a+e}, dim M_a)
stack whose j-th slice is the j-th basis monomial of R_e, `freemod.act`
on the representatives projected onto M_{a+e}; `freemod.FreeMap.induced`
over M multiplies a map's stacked pieces of R_e with it.

Components that must vanish are not eliminated: M is generated in
degrees <= max(gen_degrees) and R in degree 1, so above the top generator
M_d = R_1 M_{d-1}, and M_{d-1} = 0 gives M_d = 0 (the rule the ring uses
for its own first zero component).

The relation map serves every degree's span of ring multiples.  Its
producers move records, not vectors: a presentation's polynomials go in
through `FreeMap.from_poly_matrix`, and `shifted` and
`tensor_presentation` move the records of the relations they start from
onto renumbered generators in shifted degrees, in the same order.

`Homology` is the one homology computation of the package: Tor, Ext,
Koszul homology (depth) and the homology of a `FreeComplex` all read
H_k = ker d_k / im d_{k+1} from it, degree by degree, and it checks
d_k d_{k+1} = 0 on every adjacent pair of matrices it builds.  Its
`module(k, act)` view serves the same `ring`/`dim`/`action_matrix`
protocol as `GradedModule`, so `minimal_generators_in` reads a homology
module (Tor_i) as it reads M, and `generator_matrix` gives the matrices
of Tor_i's free cover.
"""

from functools import partial
from types import SimpleNamespace

import numpy as np

from . import freemod
from .errors import DegreeBoundError, HomogeneityError, SyzkitError
from .linalg import (
    coset_complement,
    extend_basis,
    identity,
    kernel_basis,
    matmul,
    quotient_projection,
    rank,
    solve_many,
    zeros,
)
from .polynomials import poly_degree


class GradedModule:
    def __init__(self, ring, gen_degrees, relations):
        """relations: the `freemod.FreeMap` of twist 0 into the free module
        on gen_degrees whose column r, from a source generator in the
        relation's degree, is relation r."""
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        if relations.target_degrees != self.gen_degrees or relations.twist:
            raise SyzkitError("the relations must be a map of twist 0 into the module's "
                              "generators")
        self.relations = relations
        self._spaces = {}
        self._action = {}
        self._mingens = None
        self.offsets_memo = {}  # freemod.component_offsets over M, on (gen_degrees, d)

    def relation_polys(self):
        """Each relation as one polynomial per generator."""
        rows = self.relations.to_poly_matrix()
        return [[row[r] for row in rows] for r in range(len(self.relations.source_degrees))]

    # -- degreewise structure --------------------------------------------

    def _space(self, d):
        if d not in self._spaces:
            amb = freemod.component_dim(self.ring, self.gen_degrees, d)
            if amb == 0:
                self._spaces[d] = ([], zeros(0, 0))
            elif d > max(self.gen_degrees) and self.dim(d - 1) == 0:
                # M_d = R_1 * M_{d-1} above the generators
                self._spaces[d] = ([], zeros(0, amb))
            else:
                # columns: every ring multiple of every relation in degree d
                span = self.relations.induced(d)
                self._spaces[d] = quotient_projection(span, self.ring.char)
        return self._spaces[d]

    def dim(self, d):
        # generator degrees may be negative (twisted cone cokernels)
        if not self.gen_degrees or d < min(self.gen_degrees):
            return 0
        return len(self._space(d)[0])

    def min_degree(self):
        return min(self.gen_degrees) if self.gen_degrees else 0

    def proj(self, d):
        """Projection from free component coordinates onto M_d coordinates."""
        return self._space(d)[1]

    def action_matrix(self, e, a):
        """Multiplication by every basis monomial of R_e, M_a -> M_{a+e}:
        the (dim R_e, dim M_{a+e}, dim M_a) stack whose j-th slice is the
        j-th monomial's matrix, read through `freemod.act` on the
        representatives of M_a (the identity columns at its standard
        coordinates) and projected onto M_{a+e}."""
        key = (e, a)
        if key not in self._action:
            ring, reps = self.ring, self._space(a)[0]
            amb = freemod.component_dim(ring, self.gen_degrees, a)
            x = (np.arange(amb)[:, None] == np.asarray(reps, dtype=np.intp)).astype(np.int64)
            free = freemod.act(ring, ring.dim, ring.mult_maps, self.gen_degrees, e, a, x)
            flat = matmul(self.proj(a + e), free, ring.char)
            self._action[key] = np.ascontiguousarray(
                flat.reshape(self.dim(a + e), ring.dim(e), len(reps)).transpose(1, 0, 2))
        return self._action[key]

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
        """Free-cover coordinates of an element of M_d, by `solve_many`."""
        try:
            return solve_many(self.proj(d), np.reshape(vec, (-1, 1)), self.ring.char)[:, 0]
        except ValueError:
            raise SyzkitError("element lift failed; projection not surjective?") from None

    def shifted(self, delta):
        """Same module with all generator degrees moved up by delta."""
        gens = tuple(g + delta for g in self.gen_degrees)
        rels = freemod.FreeMap(self.ring, [e + delta for e in self.relations.source_degrees],
                               gens, self.relations.records())
        return GradedModule(self.ring, gens, rels)


def minimal_generators_in(space, lo, hi):
    """Minimal generators of a graded space in degrees lo..hi, ascending.

    `space` needs `.ring`, `.dim(d)` and `.action_matrix(e, a)`, the
    (dim R_e, dim X_{a+e}, dim X_a) stack of monomial actions.  In each
    degree the standard-coordinate complement of R_1 * X_{d-1} inside X_d is
    taken; returns a list of (degree, X_d vector).
    """
    ring = space.ring
    out = []
    for d in range(lo, hi + 1):
        n = space.dim(d)
        if n == 0:
            continue
        acts = space.action_matrix(1, d - 1)  # columns variable-major
        span = acts.transpose(1, 0, 2).reshape(n, acts.shape[0] * acts.shape[2])
        comp = coset_complement(span, n, ring.char)
        out.extend((d, comp[:, k]) for k in range(comp.shape[1]))
    return out


def generator_matrix(space, gens, d):
    """Degree-d matrix of the free cover on gens = [(degree, vector)].

    Column (b, j) is the j-th basis monomial of R_{d - g_b} acting on the
    b-th generator, `freemod.act` on the one-generator sum X(0); rows are
    the coordinates of X_d.  `space` needs `.ring`, `.dim(d)` and
    `.action_matrix(e, a)`.
    """
    ring = space.ring
    cols = [freemod.act(ring, space.dim, space.action_matrix, (0,), d - g, g, w.reshape(-1, 1))
            for g, w in gens]
    return np.concatenate([zeros(space.dim(d), 0), *cols], axis=1)


class Homology:
    """H_k = ker d_k / im d_{k+1} of a complex given degree by degree.

    diff(k, d) is the matrix of d_k : C_{k,d} -> C_{k-1,d}, with one column
    per coordinate of C_{k,d} even where it has no rows.  Each matrix is
    built once and ranked at most once, and d_{k-1} d_k = 0 is checked on
    every adjacent pair built, whichever is built second.  A basis of
    H_{k,d} is represented by the columns of kernel_basis(d_k) that
    extend_basis picks past the image of d_{k+1}.
    """

    def __init__(self, ring, diff):
        self.ring = ring
        self._diff = diff
        self._built = {}    # (k, d) -> d_k in degree d
        self._ranks = {}
        self._classes = {}  # (k, d) -> representative cycles, as columns

    def _matrix(self, k, d):
        if (k, d) not in self._built:
            mat = self._built[(k, d)] = self._diff(k, d)
            for j in (k, k + 1) if mat.size else ():
                left, right = self._built.get((j - 1, d)), self._built.get((j, d))
                if (left is not None and right is not None
                        and matmul(left, right, self.ring.char).any()):
                    raise SyzkitError(f"not a complex: d_{j - 1} d_{j} is not zero "
                                      f"in degree {d}")
        return self._built[(k, d)]

    def _rank(self, k, d):
        if (k, d) not in self._ranks:
            self._ranks[(k, d)] = rank(self._matrix(k, d), self.ring.char)
        return self._ranks[(k, d)]

    def dim(self, k, d):
        """dim_k H_{k,d}, from the ranks of d_k and d_{k+1}."""
        size = self._matrix(k, d).shape[1]
        return size - self._rank(k, d) - self._rank(k + 1, d) if size else 0

    def classes(self, k, d):
        """Cycles in C_{k,d} whose classes form a basis of H_{k,d}, as columns."""
        if (k, d) not in self._classes:
            p, mat = self.ring.char, self._matrix(k, d)
            z = kernel_basis(mat, p) if mat.size else identity(mat.shape[1])
            idx = extend_basis(self._matrix(k + 1, d), z, p) if z.shape[1] else []
            self._classes[(k, d)] = z[:, idx]
        return self._classes[(k, d)]

    def module(self, k, act):
        """H_k as the graded space that `minimal_generators_in` and
        `generator_matrix` read: `ring`, `dim(d)` and `action_matrix(e, a)`.
        R acts through chains: act(e, a, x) multiplies the chains x in
        C_{k,a} by every basis monomial of R_e, as the
        (dim C_{k,a+e}, dim R_e * x.shape[1]) matrix with columns (j, x)."""
        return SimpleNamespace(ring=self.ring, dim=partial(self.dim, k),
                               action_matrix=partial(self._action_matrix, k, act))

    def _action_matrix(self, k, act, e, a):
        """The (dim R_e, dim H_{k,a+e}, dim H_{k,a}) stack of monomial
        actions: every class representative is acted on at once, and one
        solve against [representatives | d_{k+1}] in degree a + e reads
        the classes of the products."""
        reps = self.classes(k, a)
        de, r, rt = self.ring.dim(e), reps.shape[1], self.dim(k, a + e)
        if not (de and r and rt):
            return np.zeros((de, rt, r), dtype=np.int64)
        p = self.ring.char
        basis = np.concatenate([self.classes(k, a + e), self._matrix(k + 1, a + e)], axis=1)
        in_h = solve_many(basis, act(e, a, reps), p)[:rt]
        return np.ascontiguousarray(in_h.reshape(rt, de, r).transpose(1, 0, 2))


def module_from_presentation(ring, gen_degrees, relation_columns):
    """Build a module from polynomial relation columns.

    Each column is a list of polynomial dicts, one entry per generator;
    entry degrees + generator degrees must agree across the column.
    """
    gens = tuple(gen_degrees)
    kept, degs = [], []
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
        kept.append(col)
        degs.append(rdeg)
    entries = [[col[s] for col in kept] for s in range(len(gens))]
    return GradedModule(ring, gens, freemod.FreeMap.from_poly_matrix(ring, gens, degs, entries))


def module_from_strings(ring, gen_degrees, relation_columns):
    cols = [[ring.base.parse(s) for s in col] for col in relation_columns]
    return module_from_presentation(ring, gen_degrees, cols)


def free_module(ring, gen_degrees=(0,)):
    return GradedModule(ring, tuple(gen_degrees), freemod.FreeMap.zero(ring, (), gen_degrees))


def residue_field(ring):
    """k = R / (all variables)."""
    cols = [[{tuple(1 if i == v else 0 for i in range(len(ring.vars))): 1}]
            for v in range(len(ring.vars))]
    return module_from_presentation(ring, (0,), cols)


def tensor_presentation(m, n):
    """Presentation of M tensor N over their common ring.  The pair (s, t)
    of generators of M and N is generator s * nn + t; each relation of M
    times each generator of N, then each relation of N times each generator
    of M, is a relation, whose records are M's or N's moved there."""
    if not m.ring.same_ring(n.ring):
        raise SyzkitError("tensor product needs a common ring")
    ring = m.ring
    gens = tuple(g + h for g in m.gen_degrees for h in n.gen_degrees)
    nm, nn = len(m.gen_degrees), len(n.gen_degrees)
    mr, nr = m.relations, n.relations
    degs = [e + h for e in mr.source_degrees for h in n.gen_degrees]
    records = [(bs * nn + t, cs * nn + t, stack)
               for t in range(nn) for bs, cs, stack in mr.records()]
    records += [(len(degs) + bs * nm + s, s * nn + cs, stack)
                for s in range(nm) for bs, cs, stack in nr.records()]
    degs += [e + g for e in nr.source_degrees for g in m.gen_degrees]
    return GradedModule(ring, gens, freemod.FreeMap(ring, degs, gens, records))


class ModuleMap:
    """Map of modules induced by a `freemod.FreeMap` between their free
    covers, which gives the images of the generators and the twist."""

    def __init__(self, source, target, free):
        if (free.source_degrees, free.target_degrees) != (source.gen_degrees, target.gen_degrees):
            raise SyzkitError("the free map does not run between the modules' generators")
        self.source = source
        self.target = target
        self.twist = free.twist
        self._free = free

    def induced(self, d):
        """Numeric matrix M_d -> N_{d+twist}."""
        t = self.target
        reps = self._free.induced(d)[:, self.source._space(d)[0]]
        return matmul(t.proj(d + self.twist), reps, t.ring.char)

    def verify(self):
        """Check the map kills every relation of the source (well-defined):
        the relations' images, one matrix per relation degree d, project to
        zero in N_{d+twist}."""
        t, rels = self.target, self.source.relations
        for bs, images in self._free.compose(rels):
            d = rels.source_degrees[bs[0]] + self.twist
            if matmul(t.proj(d), images, t.ring.char).any():
                return False
        return True


def verify_ses(f, g):
    """Degreewise exactness of 0 -> A -f-> B -g-> C -> 0 up to the certified
    top of the ring's degree window over A, B and C, for well-defined maps.
    g o f is read on A's generators from `freemod.FreeMap.compose`, as
    `ModuleMap.verify` reads relations: a module map, it is zero below the
    least degree of a generator it does not kill, and nonzero there.

    Returns (ok, first_failure_description)."""
    a, b, c = f.source, f.target, g.target
    p = a.ring.char
    if g.source is not b:
        return False, "maps are not composable"
    tw = f.twist + g.twist
    first = min((a.gen_degrees[bs[0]] for bs, images in g._free.compose(f._free)
                 if matmul(c.proj(a.gen_degrees[bs[0]] + tw), images, p).any()), default=None)
    degs = (a.gen_degrees + tuple(x - f.twist for x in b.gen_degrees)
            + tuple(x - tw for x in c.gen_degrees))
    window = a.ring.degree_window(min(degs, default=0), max(degs, default=0))
    for d in range(min((0,) + degs), window.certified + 1):
        if d == first:
            return False, f"composite nonzero in degree {d}"
        da, db, dc = a.dim(d), b.dim(d + f.twist), c.dim(d + tw)
        if db != da + dc:
            return False, f"dimension mismatch in degree {d}: {db} != {da}+{dc}"
        if rank(f.induced(d), p) != da:
            return False, f"left map not injective in degree {d}"
        if rank(g.induced(d + f.twist), p) != dc:
            return False, f"right map not surjective in degree {d}"
    return True, ""
