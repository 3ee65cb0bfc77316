"""Periodicity certificates: twisted chain self-isomorphisms of a complex's tail.

A shift-q self-map phi of a FreeComplex with internal twist tau has
components phi_j : F_j -> F_{j-q}; the chain condition
phi_{j-1} d_j = (-1)^q d_{j-q} phi_j is linear in their coordinates.  The
tail [onset+q, window] is periodic when some solution is an isomorphism on
every tail term, which is checked on scalar blocks (exact by graded
Nakayama).

`find_tail_isomorphism` is the one search step on a tail: it finds tau,
solves the chain system, rules out solution spaces whose scalar block is
forced to vanish somewhere, tries the seeded candidates, and re-checks the
witness exactly.  `certify_periodicity` is the one loop over periods and
onsets; resolutions (onset free) and complexes (onset 0) both enter it and
get the same `PeriodicityCertificate`.
"""

from dataclasses import dataclass, field

import numpy as np

from . import freemod
from .complexes import ChainMap
from .linalg import identity, kernel_basis, matvec, zeros


@dataclass
class PeriodicityCertificate:
    """Least period, and least onset for it, of a complex's tail.

    `witness` is a shift-`period` chain self-map of internal twist `twist`
    that is an isomorphism on F_j for onset + period <= j <= window and
    satisfies the chain condition there; `below` maps every smaller shift
    to (kind, rigorous), the reason it is infeasible.
    """

    period: int
    onset: int
    twist: int
    window: int
    witness: ChainMap = field(repr=False)
    below: dict = field(default_factory=dict)


def consistent_twist(cx, q, j_lo):
    """Internal twist tau with sorted(F_j) + tau == sorted(F_{j-q}) for all
    j in [j_lo, window]; None if no single tau works."""
    tau = None
    for j in range(j_lo, cx.window + 1):
        src = sorted(cx.gen_degrees(j))
        tgt = sorted(cx.gen_degrees(j - q))
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
    """Offsets of the unknown coordinates of each phi_j column, j >= j_lo."""

    def __init__(self, cx, q, tau, j_lo):
        self.cx = cx
        self.q = q
        self.tau = tau
        self.j_lo = j_lo
        self.col_offset = {}
        total = 0
        for j in range(j_lo, cx.window + 1):
            tgt = cx.gen_degrees(j - q)
            for b, g in enumerate(cx.gen_degrees(j)):
                dim = freemod.component_dim(cx.ring, tgt, g + tau)
                self.col_offset[(j, b)] = (total, dim)
                total += dim
        self.total = total

    def chain_map(self, x):
        """Solution vector -> ChainMap of the complex, zero below j_lo."""
        column_lists = [None] * self.j_lo
        for j in range(self.j_lo, self.cx.window + 1):
            spans = [self.col_offset[(j, b)] for b in range(self.cx.rank(j))]
            column_lists.append([x[off:off + dim].copy() for off, dim in spans])
        return ChainMap.from_columns(self.cx, self.cx, self.q, self.tau, column_lists)


def _apply_unknown_blocks(dmap, b, tgt_degs, tau, layout, j, out):
    """Accumulate into `out` the contribution of phi_j applied to column b
    of the fixed map dmap, whose target is F_j."""
    ring, p = dmap.ring, dmap.ring.char
    d = dmap.source_degrees[b] + dmap.twist
    for c, piece in dmap.blocks(b):
        coff, cdim = layout.col_offset[(j, c)]
        if cdim == 0:
            continue
        h = dmap.target_degrees[c]
        for i in np.nonzero(piece)[0]:
            mult = freemod.free_mult_matrix(ring, tgt_degs, d - h, int(i), h + tau)
            # reduce every term: three products of size (p-1)^2 overflow int64
            out[:, coff:coff + cdim] += int(piece[i]) * mult % p
            out[:, coff:coff + cdim] %= p


def solve_chain_self_maps(cx, q, tau, j_lo):
    """Basis of the space of twist-tau chain self-maps of shift q on the
    tail [j_lo, window] of cx.  Returns (layout, basis)."""
    layout = _Layout(cx, q, tau, j_lo)
    ring = cx.ring
    p = ring.char
    sign = (-1) ** q
    rows_blocks = []
    for j in range(j_lo + 1, cx.window + 1):
        tgt_low = cx.gen_degrees(j - 1 - q)
        dj = cx.diff(j)
        dlow = cx.diff(j - q)
        dlow_by_degree = {}  # generators of one degree share d_{j-q}'s matrix
        for b, g in enumerate(cx.gen_degrees(j)):
            nrows = freemod.component_dim(ring, tgt_low, g + tau)
            if nrows == 0:
                continue
            block = zeros(nrows, layout.total)
            # phi_{j-1} applied to d_j(e_b)
            if dj is not None:
                _apply_unknown_blocks(dj, b, tgt_low, tau, layout, j - 1, block)
            # minus (-1)^q d_{j-q} applied to phi_j(e_b)
            off, dim = layout.col_offset[(j, b)]
            if dim and dlow is not None and dlow.source_degrees:
                if g not in dlow_by_degree:
                    dlow_by_degree[g] = dlow.induced(g + tau)
                block[:, off:off + dim] -= sign * dlow_by_degree[g]
            rows_blocks.append(block % p)
    if layout.total == 0:
        return layout, zeros(0, 0)
    if not rows_blocks:
        return layout, identity(layout.total)
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
    ring, tau = layout.cx.ring, layout.tau
    tgt = layout.cx.gen_degrees(j - layout.q)
    coords = []
    for b, g in enumerate(layout.cx.gen_degrees(j)):
        off, dim = layout.col_offset[(j, b)]
        if dim == 0:
            continue
        offs = freemod.component_offsets(ring, tgt, g + tau)
        for c, h in enumerate(tgt):
            if h == g + tau and ring.dim(0) > 0:
                coords.append(off + offs[c])
    return coords


def find_tail_isomorphism(cx, q, onset, why, seed=0, budget=64):
    """Shift-q chain self-map of cx that is an isomorphism on every term of
    the tail [onset+q, window] and passes the exact chain-condition check
    there.

    Returns the witness ChainMap, or None after setting why[q] to
    (kind, rigorous).  A rigorous kind holds for every chain map on the
    tail, so it also rules out every longer tail.
    """
    j_lo = onset + q
    tau = consistent_twist(cx, q, j_lo)
    if tau is None:
        why[q] = ("degree-obstruction", True)
        return None
    layout, basis = solve_chain_self_maps(cx, q, tau, j_lo)
    if basis.shape[1] == 0:
        why[q] = ("only-zero-map", True)
        return None
    for j in range(j_lo, cx.window + 1):
        coords = scalar_block_coordinates(layout, j)
        if coords and not basis[coords, :].any():
            why[q] = ("zero-scalar-block", True)
            return None
    for x in candidate_solutions(basis, cx.ring.char, seed, budget):
        phi = layout.chain_map(x)
        if phi.iso_range_ok(j_lo) and phi.verify(j_lo):
            return phi
    why[q] = ("no-invertible-combination", False)
    return None


def certify_periodicity(cx, free_onset, seed=0, budget=64):
    """Least period q <= window/2 with a tail isomorphism, at its least
    onset (always 0 unless free_onset); None when no period fits the window.

    Each period is tried on its shortest tail first (onset window - 2q, or
    0).  An isomorphism on a longer tail restricts to one there, so a
    rigorous failure rules out every onset and is recorded; otherwise the
    onsets are walked up from 0.
    """
    w = cx.window
    below = {}
    for q in range(1, w // 2 + 1):
        last = w - 2 * q if free_onset else 0
        witness = find_tail_isomorphism(cx, q, last, below, seed, budget)
        if witness is None and below[q][1]:
            continue
        for onset in range(last):
            earlier = find_tail_isomorphism(cx, q, onset, {}, seed, budget)
            if earlier is not None:
                witness, last = earlier, onset
                break
        if witness is not None:
            below.pop(q, None)
            return PeriodicityCertificate(q, last, witness.twist, w, witness, below)
    return None
