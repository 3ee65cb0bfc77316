"""Periodicity certificates: twisted chain self-isomorphisms of a complex's tail.

A shift-q self-map phi of a FreeComplex with internal twist tau has
components phi_j : F_j -> F_{j-q}; the chain condition
phi_{j-1} d_j = (-1)^q d_{j-q} phi_j is linear in their coordinates.  The
tail [onset+q, window] is periodic when some solution is an isomorphism on
every tail term, which is checked on scalar blocks (exact by graded
Nakayama).

`solve_chain_self_maps` writes the system on the tail [j_lo, window] with
one `freemod.block_matrix`.  Column block (j, b), j >= j_lo, is the unknown
phi_j(e_b), in the degree g_b + tau component of F_{j-q}; row block (j, b),
j > j_lo, is the chain condition on e_b in F_j, in the degree g_b + tau
component of F_{j-1-q}.  That row's block in column (j-1, c) is
multiplication by the entry (c, b) of d_j, its block in column (j, b) is
-(-1)^q d_{j-q}, and every other block is zero.

`find_tail_isomorphism` is the one search step on a tail: it finds tau,
solves the chain system, rules out solution spaces whose scalar block is
forced to vanish somewhere, tries the seeded candidates, and re-checks the
witness exactly.  `certify_periodicity` is the one loop over periods and
onsets; resolutions (onset free) and complexes (onset 0) both enter it and
get the same `PeriodicityCertificate`.
"""

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import freemod
from .complexes import ChainMap
from .errors import SyzkitError
from .linalg import kernel_basis, seeded_combinations

COMBINATIONS = 64  # seeded combinations of a solution basis tried after its vectors


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


class Unknowns:
    """The column blocks of the chain system on the tail [j_lo, window]: block
    index[(j, b)] holds phi_j(e_b) and has size sizes[index[(j, b)]]."""

    def __init__(self, cx, q, tau, j_lo):
        self.cx = cx
        self.q = q
        self.tau = tau
        self.j_lo = j_lo
        self.index = {}
        self.sizes = []
        for j in range(j_lo, cx.window + 1):
            tgt = cx.gen_degrees(j - q)
            for b, g in enumerate(cx.gen_degrees(j)):
                self.index[(j, b)] = len(self.sizes)
                self.sizes.append(freemod.component_dim(cx.ring, tgt, g + tau))
        self.starts = [0, *accumulate(self.sizes)]
        self.total = self.starts[-1]

    def chain_map(self, x):
        """Solution vector -> ChainMap of the complex, zero below j_lo."""
        blocks = np.split(x, self.starts[1:-1])
        comps = []
        for j in range(self.cx.window + 1):
            src, tgt = self.cx.gen_degrees(j), self.cx.gen_degrees(j - self.q)
            if j < self.j_lo:
                comps.append(freemod.FreeMap.zero(self.cx.ring, src, tgt, self.tau))
            else:
                cols = [blocks[self.index[(j, b)]] for b in range(len(src))]
                comps.append(freemod.FreeMap.from_dense(self.cx.ring, src, tgt, cols, self.tau))
        return ChainMap(self.cx, self.cx, self.q, self.tau, comps)


def solve_chain_self_maps(cx, q, tau, j_lo, induced=None):
    """Basis of the space of twist-tau chain self-maps of shift q on the
    tail [j_lo, window] of cx.  Returns (unknowns, basis).  induced, when
    given, keeps d_i's matrix in degree e by (i, e), for one search."""
    unknowns = Unknowns(cx, q, tau, j_lo)
    ring = cx.ring
    p = ring.char
    sign = (-1) ** q
    induced = {} if induced is None else induced
    row_sizes, blocks = [], {}
    for j in range(j_lo + 1, cx.window + 1):
        tgt_low = cx.gen_degrees(j - 1 - q)
        dj = cx.diff(j)
        dlow = cx.diff(j - q)
        dlow_by_degree = {}  # generators of one degree share d_{j-q}'s matrix
        row0 = len(row_sizes)  # generator b of F_j has the row block row0 + b
        row_sizes += [freemod.component_dim(ring, tgt_low, g + tau) for g in cx.gen_degrees(j)]
        # phi_{j-1} applied to d_j(e_b): entry (c, b) of d_j times phi_{j-1}(e_c)
        for bs, cs, stack in dj.records():
            g, h = dj.source_degrees[bs[0]], dj.target_degrees[cs[0]]
            for b, c, piece in zip(bs.tolist(), cs.tolist(), stack):
                if row_sizes[row0 + b]:
                    # reduce every term: three products of size (p-1)^2 overflow int64
                    terms = [int(piece[i]) * freemod.free_mult_matrix(
                        ring, tgt_low, g - h, int(i), h + tau) % p for i in np.flatnonzero(piece)]
                    blocks[row0 + b, unknowns.index[(j - 1, c)]] = sum(terms) % p
        for b, g in enumerate(cx.gen_degrees(j)):
            if row_sizes[row0 + b] == 0:
                continue
            # minus (-1)^q d_{j-q} applied to phi_j(e_b)
            if g not in dlow_by_degree:
                if (j - q, g + tau) not in induced:
                    induced[j - q, g + tau] = dlow.induced(g + tau)
                dlow_by_degree[g] = -sign * induced[j - q, g + tau] % p
            blocks[row0 + b, unknowns.index[(j, b)]] = dlow_by_degree[g]
    system = freemod.block_matrix(row_sizes, unknowns.sizes, blocks)
    return unknowns, kernel_basis(system, p)


def candidate_solutions(basis, p, seed=0):
    """Basis vectors first, then COMBINATIONS seeded random combinations."""
    n = basis.shape[1]
    for i in range(n):
        yield basis[:, i]
    if n >= 2:
        yield from seeded_combinations(basis, p, np.random.default_rng(seed), COMBINATIONS)


def scalar_block_coordinates(unknowns, j):
    """Unknown coordinates holding the constant terms of phi_j's scalar block."""
    ring, tau = unknowns.cx.ring, unknowns.tau
    tgt = unknowns.cx.gen_degrees(j - unknowns.q)
    coords = []
    for b, g in enumerate(unknowns.cx.gen_degrees(j)):
        start = unknowns.starts[unknowns.index[(j, b)]]
        offs = freemod.component_offsets(ring, tgt, g + tau)
        for c, h in enumerate(tgt):
            if h == g + tau:
                coords.append(start + offs[c])
    return coords


def find_tail_isomorphism(cx, q, onset, why, induced, seed=0):
    """Shift-q chain self-map of cx that is an isomorphism on every term of
    the tail [onset+q, window] and passes the exact chain-condition check
    there.

    Returns the witness ChainMap, or None after setting why[q] to
    (kind, rigorous).  A rigorous kind holds for every chain map on the
    tail, so it also rules out every longer tail.  induced is the search's
    record of degree matrices (see `solve_chain_self_maps`).
    """
    j_lo = onset + q
    tau = consistent_twist(cx, q, j_lo)
    if tau is None:
        why[q] = ("degree-obstruction", True)
        return None
    unknowns, basis = solve_chain_self_maps(cx, q, tau, j_lo, induced)
    if basis.shape[1] == 0:
        why[q] = ("only-zero-map", True)
        return None
    for j in range(j_lo, cx.window + 1):
        coords = scalar_block_coordinates(unknowns, j)
        if coords and not basis[coords, :].any():
            why[q] = ("zero-scalar-block", True)
            return None
    for x in candidate_solutions(basis, cx.ring.char, seed):
        phi = unknowns.chain_map(x)
        if phi.iso_range_ok(j_lo) and phi.verify(j_lo):
            return phi
    why[q] = ("no-invertible-combination", False)
    return None


def certify_periodicity(cx, free_onset, seed=0):
    """Least period q <= window/2 with a tail isomorphism, at its least
    onset (always 0 unless free_onset); None when no period fits the window.

    Each period is tried on its shortest tail first (onset window - 2q, or
    0).  An isomorphism on a longer tail restricts to one there, so a
    rigorous failure rules out every onset and is recorded; otherwise the
    onsets are walked up from 0.  The tails share the differentials'
    degree matrices, kept for this search only.
    """
    if seed < 0:
        raise SyzkitError(f"periodicity search needs a seed >= 0, got {seed}")
    w = cx.window
    below, induced = {}, {}
    for q in range(1, w // 2 + 1):
        last = w - 2 * q if free_onset else 0
        witness = find_tail_isomorphism(cx, q, last, below, induced, seed)
        if witness is None and below[q][1]:
            continue
        for onset in range(last):
            earlier = find_tail_isomorphism(cx, q, onset, {}, induced, seed)
            if earlier is not None:
                witness, last = earlier, onset
                break
        if witness is not None:
            below.pop(q, None)
            return PeriodicityCertificate(q, last, witness.twist, w, witness, below)
    return None
