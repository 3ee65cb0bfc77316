"""Linear solving for twisted chain self-maps of shift q.

Unknowns are the coordinates of all candidate map components
phi_j : F_j -> F_{j-q} (internal twist tau); the chain condition
phi_{j-1} d_j = (-1)^q d_{j-q} phi_j is linear in them.  The solver
returns a basis of the solution space; callers then look for members
whose components are isomorphisms (checked on scalar blocks, which is
exact by graded Nakayama).
"""

import numpy as np

from . import freemod
from .linalg import identity, kernel_basis, matvec, zeros


def consistent_twist(gens, q, j_lo, j_hi):
    """Internal twist tau with sorted(gens[j]) + tau == sorted(gens[j-q]) for
    all j in [j_lo, j_hi]; None if no single tau works."""
    tau = None
    for j in range(j_lo, j_hi + 1):
        src = sorted(gens[j]) if j < len(gens) else []
        tgt = sorted(gens[j - q]) if 0 <= j - q < len(gens) else []
        if len(src) != len(tgt):
            return None
        if not src:
            continue
        t = tgt[0] - src[0]
        if any(s + t != g for s, g in zip(src, tgt)):
            return None
        if tau is None:
            tau = t
        elif tau != t:
            return None
    return tau


class _Layout:
    """Offsets of the unknown coordinates of each phi_j column."""

    def __init__(self, ring, gens, q, tau, j_lo, j_hi):
        self.ring = ring
        self.gens = gens
        self.q = q
        self.tau = tau
        self.j_lo = j_lo
        self.j_hi = j_hi
        self.col_offset = {}
        total = 0
        for j in range(j_lo, j_hi + 1):
            tgt = gens[j - q] if 0 <= j - q < len(gens) else ()
            for b, g in enumerate(gens[j] if j < len(gens) else ()):
                dim = freemod.component_dim(ring, tgt, g + tau)
                self.col_offset[(j, b)] = (total, dim)
                total += dim
        self.total = total

    def unpack(self, x):
        """Solution vector -> dict j -> FreeMap (phi_j)."""
        maps = {}
        for j in range(self.j_lo, self.j_hi + 1):
            src = self.gens[j] if j < len(self.gens) else ()
            tgt = self.gens[j - self.q] if 0 <= j - self.q < len(self.gens) else ()
            cols = []
            for b, g in enumerate(src):
                off, dim = self.col_offset[(j, b)]
                cols.append(np.array(x[off:off + dim], dtype=x.dtype))
            maps[j] = freemod.FreeMap(self.ring, src, tgt, cols, self.tau)
        return maps


def _apply_unknown_blocks(ring, mid_degs, tgt_degs, tau, vec, d, layout, j, rows, out, sign):
    """Accumulate into `out` the contribution of phi_j applied to the fixed
    vector `vec` (living in the degree-d component over mid_degs)."""
    offs = freemod.component_offsets(ring, mid_degs, d)
    p = ring.char
    for c, h in enumerate(mid_degs):
        piece = vec[offs[c]:offs[c + 1]]
        if not piece.any():
            continue
        e = d - h
        coff, cdim = layout.col_offset[(j, c)]
        if cdim == 0:
            continue
        for i in np.nonzero(piece)[0]:
            mult = freemod.free_mult_matrix(ring, tgt_degs, e, int(i), h + tau)
            # reduce every term: three products of size (p-1)^2 overflow int64
            out[:rows, coff:coff + cdim] += sign * int(piece[i]) * mult % p
            out[:rows, coff:coff + cdim] %= p


def solve_chain_self_maps(ring, gens, diffs, q, tau, j_lo, j_hi):
    """Basis of the space of twist-tau chain self-maps of shift q on
    [j_lo, j_hi].  diffs[j]: F_j -> F_{j-1}.  Returns (layout, basis)."""
    layout = _Layout(ring, gens, q, tau, j_lo, j_hi)
    p = ring.char
    sign = (-1) ** q
    rows_blocks = []
    for j in range(j_lo + 1, j_hi + 1):
        if j >= len(gens) or not gens[j]:
            continue
        mid = gens[j - 1] if j - 1 < len(gens) else ()
        tgt_low = gens[j - 1 - q] if 0 <= j - 1 - q < len(gens) else ()
        dj = diffs[j] if j < len(diffs) else None
        dlow = diffs[j - q] if 0 < j - q < len(diffs) else None
        dlow_by_degree = {}  # generators of one degree share d_{j-q}'s matrix
        for b, g in enumerate(gens[j]):
            nrows = freemod.component_dim(ring, tgt_low, g + tau)
            if nrows == 0:
                continue
            block = zeros(nrows, layout.total, p)
            # phi_{j-1} applied to d_j(e_b)
            if dj is not None and mid:
                _apply_unknown_blocks(
                    ring, mid, tgt_low, tau, dj.columns[b], g, layout, j - 1,
                    nrows, block, 1,
                )
            # minus (-1)^q d_{j-q} applied to phi_j(e_b)
            off, dim = layout.col_offset[(j, b)]
            if dim and dlow is not None and dlow.source_degrees:
                if g not in dlow_by_degree:
                    dlow_by_degree[g] = dlow.induced(g + tau)
                block[:, off:off + dim] -= sign * dlow_by_degree[g]
            rows_blocks.append(block % p)
    if layout.total == 0:
        return layout, zeros(0, 0, p)
    if not rows_blocks:
        return layout, identity(layout.total, p)
    return layout, kernel_basis(np.concatenate(rows_blocks, axis=0), p)


def candidate_solutions(basis, p, seed=0, budget=64):
    """Basis vectors first, then seeded random combinations (deterministic)."""
    n = basis.shape[1]
    for i in range(n):
        yield basis[:, i]
    if n >= 2:
        rng = np.random.default_rng(seed)
        for _ in range(budget):
            coeffs = rng.integers(0, p, size=n)
            if not coeffs.any():
                continue
            yield matvec(basis, coeffs, p)


def scalar_block_coordinates(layout, j):
    """Unknown coordinates holding the constant terms of phi_j's scalar block."""
    ring, gens, q, tau = layout.ring, layout.gens, layout.q, layout.tau
    src = gens[j] if j < len(gens) else ()
    tgt = gens[j - q] if 0 <= j - q < len(gens) else ()
    coords = []
    for b, g in enumerate(src):
        off, dim = layout.col_offset[(j, b)]
        if dim == 0:
            continue
        offs = freemod.component_offsets(ring, tgt, g + tau)
        for c, h in enumerate(tgt):
            if h == g + tau and ring.dim(0) > 0:
                coords.append(off + offs[c])
    return coords


def find_tail_isomorphism(ring, gens, diffs, q, onset, window, seed=0, budget=64):
    """Twisted chain self-iso of the tail [onset+q, window]; (tau, maps) or None."""
    j_lo, j_hi = onset + q, window
    tau = consistent_twist(gens, q, j_lo, j_hi)
    if tau is None:
        return None
    layout, basis = solve_chain_self_maps(ring, gens, diffs, q, tau, j_lo, j_hi)
    if basis.shape[1] == 0:
        return None
    for x in candidate_solutions(basis, ring.char, seed, budget):
        maps = layout.unpack(x)
        if all(maps[j].degreewise_isomorphism() for j in range(j_lo, j_hi + 1)):
            return tau, [maps[j] for j in range(j_lo, j_hi + 1)]
    return None
