import hashlib
import os

import numpy as np
import pytest

from syzkit import freemod
from syzkit.chainsolve import consistent_twist, solve_chain_self_maps
from syzkit.complexes import induced_chain_map, tensor_many
from syzkit.errors import DegreeBoundError, HomogeneityError, SyzkitError
from syzkit.freemod import FreeMap, block_matrix, component_dim, component_offsets
from syzkit.io import read_complex_file
from syzkit.modules import module_from_strings
from syzkit.rings import ring_from_strings
from poly_oracles import normal_form

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

RINGS = [
    (2, ["x", "y"], ["x^2", "y^2"]),
    (32003, ["x", "y", "z"], ["x*y - z^2"]),
    (2**31 - 1, ["x", "y", "z"], ["x^2 + 3*y*z", "y^2 - z^2"]),
]

# source generators: three of degree 1, two of degree 2; target generators
# of degrees 0, 1, 3, 1, so the degree-3 block has length 0 in low degrees
SOURCE = (1, 1, 1, 2, 2)
TARGET = (0, 1, 3, 1)
# per source generator, the target generators whose block is nonzero: all,
# none (a zero column), a zero block between nonzero ones, only the last
PATTERNS = [(0, 1, 2, 3), (), (0, 3), (3,), (0, 1, 2, 3)]


def from_columns(ring, source_degrees, target_degrees, cols, twist=0):
    """The map whose column b is cols[b] = {target generator c: its piece},
    and zero on every generator it does not name: one record per source
    degree and target generator, whose stack is the list of its pieces."""
    found = {}
    for b, col in enumerate(cols):
        for c, piece in col.items():
            found.setdefault((source_degrees[b], c), []).append((b, c, piece))
    return FreeMap(ring, source_degrees, target_degrees,
                   [tuple(zip(*recs)) for recs in found.values()], twist)


def blocks(fmap, b):
    """(c, piece) for each target generator c on which column b of fmap is
    nonzero, in order of c, read off its records."""
    return sorted(((c, piece) for bs, cs, stack in fmap.records()
                   for bk, c, piece in zip(bs.tolist(), cs.tolist(), stack) if bk == b),
                  key=lambda rec: rec[0])


def vector(ring, gen_degrees, d, blocks):
    """The degree-d component vector whose block on generator c is
    blocks[c], a coordinate vector over R_{d - g_c} (a scalar when
    g_c = d), and zero on every generator that blocks does not name."""
    offs = component_offsets(ring, gen_degrees, d)
    vec = np.zeros(offs[-1], dtype=np.int64)
    for c, block in blocks.items():
        vec[offs[c]:offs[c + 1]] = block
    return vec


def column(fmap, b):
    """Column b of fmap as a vector over the target component in degree
    g_b + twist, read off its records."""
    return vector(fmap.ring, fmap.target_degrees, fmap.source_degrees[b] + fmap.twist,
                  dict(blocks(fmap, b)))


def pieces(ring, gen_degrees, d, vec):
    """The blocks of a degree-d component vector, one per generator."""
    offs = component_offsets(ring, gen_degrees, d)
    return [vec[lo:hi] for lo, hi in zip(offs, offs[1:])]


def identity(ring, gen_degrees):
    """The identity map of the free module on gen_degrees."""
    return FreeMap.selection(ring, gen_degrees, gen_degrees, range(len(gen_degrees)))


def columns(fmap):
    """The map's columns as coordinate vectors."""
    return [column(fmap, b) for b in range(len(fmap.source_degrees))]


def scale(fmap, c):
    """c times fmap."""
    return FreeMap(fmap.ring, fmap.source_degrees, fmap.target_degrees,
                   fmap.records(scale=c), fmap.twist)


def equals(a, b):
    """Whether two maps have the same generator degrees, twist and columns."""
    return ((a.source_degrees, a.target_degrees, a.twist)
            == (b.source_degrees, b.target_degrees, b.twist)
            and all(np.array_equal(x, y) for x, y in zip(columns(a), columns(b))))


def composite(outer, inner):
    """outer after inner as a map, its columns read off `compose`."""
    cols = [None] * len(inner.source_degrees)
    for bs, images in outer.compose(inner):
        for k, b in enumerate(bs):
            cols[b] = images[:, k]
    return FreeMap.from_dense(outer.ring, inner.source_degrees, outer.target_degrees, cols,
                              inner.twist + outer.twist)


def offsets(ring, degrees, d):
    out = [0]
    for g in degrees:
        out.append(out[-1] + ring.dim(d - g))
    return out


def sample_map(ring, twist, seed):
    gen = np.random.default_rng(seed)
    p = ring.char
    cols = []
    for g, pattern in zip(SOURCE, PATTERNS):
        offs = offsets(ring, TARGET, g + twist)
        col = np.zeros(offs[-1], dtype=np.int64)
        for c in pattern:
            if offs[c + 1] > offs[c]:
                col[offs[c]:offs[c + 1]] = gen.integers(0, p, size=offs[c + 1] - offs[c])
                col[offs[c]] = 1 + gen.integers(0, p - 1)
        cols.append(col)
    return FreeMap.from_dense(ring, SOURCE, TARGET, cols, twist)


def reference_induced(fmap, d):
    """The degree-d matrix in Python integers, one (b, c) block at a time:
    column (b, j) on target generator c is the j-th basis monomial of
    R_{d - g_b} times the piece of column b on c."""
    ring, p, t = fmap.ring, fmap.ring.char, fmap.twist
    soffs = offsets(ring, SOURCE, d)
    toffs = offsets(ring, TARGET, d + t)
    mat = [[0] * soffs[-1] for _ in range(toffs[-1])]
    for b, g in enumerate(SOURCE):
        coffs = offsets(ring, TARGET, g + t)
        for c, h in enumerate(TARGET):
            piece = [int(x) for x in column(fmap, b)[coffs[c]:coffs[c + 1]]]
            for j in range(ring.dim(d - g)):
                mult = ring.mult_map(d - g, j, g + t - h).tolist()
                for r, row in enumerate(mult):
                    entry = sum(int(m) * x for m, x in zip(row, piece)) % p
                    mat[toffs[c] + r][soffs[b] + j] = entry
    return mat


@pytest.mark.parametrize("spec", RINGS, ids=lambda s: f"p={s[0]}")
@pytest.mark.parametrize("twist", [0, 1, -1])
def test_induced_matches_a_python_integer_reference(spec, twist):
    ring = ring_from_strings(*spec, degree_bound=8)
    fmap = sample_map(ring, twist, seed=spec[0] % 1000 + twist)
    for b, pattern in enumerate(PATTERNS):
        offs = offsets(ring, TARGET, SOURCE[b] + twist)
        nonzero = [c for c in pattern if offs[c + 1] > offs[c]]
        assert [c for c, _ in blocks(fmap, b)] == nonzero
    assert blocks(fmap, 1) == []
    for d in range(7):
        assert fmap.induced(d).tolist() == reference_induced(fmap, d)


class DenseMap:
    """The dense reference: one coordinate vector per column, as maps were
    stored before they kept their nonzero blocks, with every reader written
    out in Python integers on the slices at the component offsets."""

    def __init__(self, ring, source_degrees, target_degrees, columns, twist):
        self.ring, self.twist = ring, twist
        self.src, self.tgt, self.cols = source_degrees, target_degrees, columns

    def piece(self, b, c):
        offs = offsets(self.ring, self.tgt, self.src[b] + self.twist)
        return [int(x) for x in self.cols[b][offs[c]:offs[c + 1]]]

    def blocks(self, b):
        return [(c, self.piece(b, c)) for c in range(len(self.tgt)) if any(self.piece(b, c))]

    def induced(self, d):
        ring, p, t = self.ring, self.ring.char, self.twist
        soffs, toffs = offsets(ring, self.src, d), offsets(ring, self.tgt, d + t)
        mat = [[0] * soffs[-1] for _ in range(toffs[-1])]
        for b, g in enumerate(self.src):
            for c, h in enumerate(self.tgt):
                piece = self.piece(b, c)
                for j in range(ring.dim(d - g)):
                    for r, row in enumerate(ring.mult_map(d - g, j, g + t - h).tolist()):
                        mat[toffs[c] + r][soffs[b] + j] = sum(
                            int(m) * x for m, x in zip(row, piece)) % p
        return mat

    def compose(self, inner):
        by_degree = {}
        for b, g in enumerate(inner.src):
            by_degree.setdefault(g, []).append(b)
        out = []
        for g, bs in by_degree.items():
            mat = self.induced(g + inner.twist)
            images = [[sum(m * int(x) for m, x in zip(row, inner.cols[b])) % self.ring.char
                       for b in bs] for row in mat]
            out.append((tuple(bs), images))
        return out

    def scalar_block(self):
        return [[self.piece(b, c)[0] if h == g + self.twist else 0
                 for b, g in enumerate(self.src)] for c, h in enumerate(self.tgt)]

    def restrict(self, sources, targets):
        tgt = [self.tgt[c] for c in targets]
        cols = []
        for b in sources:
            if any(any(self.piece(b, c)) for c in range(len(self.tgt)) if c not in targets):
                raise SyzkitError("dropped a nonzero block")
            cols.append(vector(self.ring, tgt, self.src[b] + self.twist,
                               {k: self.piece(b, c) for k, c in enumerate(targets)}))
        return DenseMap(self.ring, [self.src[b] for b in sources], tgt, cols, self.twist)

    def to_poly_matrix(self):
        return [[self.ring.vector_to_poly(self.piece(b, c), g + self.twist - h)
                 for b, g in enumerate(self.src)] for c, h in enumerate(self.tgt)]


def block_columns(ring, source, target, twist, gen):
    """Random columns given block by block: per (b, c), a random piece, a
    zero piece passed in, a length-0 piece passed in, or nothing."""
    p, cols = ring.char, []
    for g in source:
        col = {}
        for c, h in enumerate(target):
            size, kind = ring.dim(g + twist - h), gen.integers(0, 4)
            if kind == 0 and size:
                col[c] = gen.integers(0, p, size=size)
                col[c][0] = 1 + gen.integers(0, p - 1)
            elif kind == 1 or (kind == 2 and not size):
                col[c] = np.zeros(size, dtype=np.int64)
        cols.append(col)
    return cols


def assert_same(fmap, ref):
    assert (fmap.source_degrees, fmap.target_degrees) == (tuple(ref.src), tuple(ref.tgt))
    for b in range(len(ref.src)):
        assert [(c, x.tolist()) for c, x in blocks(fmap, b)] == ref.blocks(b)
        assert column(fmap, b).tolist() == ref.cols[b].tolist()
    assert fmap.scalar_block().tolist() == ref.scalar_block()
    assert fmap.to_poly_matrix() == ref.to_poly_matrix()


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_records_match_a_dense_reference(p):
    # every producer of records against the dense reference: the
    # constructor (whole records, one-row records in reverse order with a
    # zero row, groups reversed, records moved and negated twice),
    # from_dense, from_poly_matrix, selection, zero and restrict.  Source
    # generators: three of degree 1 and one each of 2 and 0; target
    # generators of degrees 1, 0, 2, 1, 3 and 9, above the degree bound, so
    # blocks on 3 are empty in low degrees and on 9 in every degree, and
    # the order of the generators is not that of their degrees
    ring = ring_from_strings(p, ["x", "y", "z"], ["x*y + 3*z^2", "y^2 - x*z"], degree_bound=7)
    gen = np.random.default_rng(p % 1009)
    src, tgt, twist = (1, 1, 1, 2, 0), (1, 0, 2, 1, 3, 9), 1
    cols = block_columns(ring, src, tgt, twist, gen)
    cols[1] = {c: np.zeros(ring.dim(2 - h), dtype=np.int64) for c, h in enumerate(tgt)}
    assert any(not x.any() and x.size for col in cols for x in col.values())
    dense = [vector(ring, tgt, g + twist, col) for g, col in zip(src, cols)]
    ref = DenseMap(ring, src, tgt, dense, twist)
    maps = [from_columns(ring, src, tgt, cols, twist),
            FreeMap.from_dense(ring, src, tgt, dense, twist),
            FreeMap.from_poly_matrix(ring, tgt, src, ref.to_poly_matrix(), twist)]
    # the same pieces as one-row records in reverse order, with a zero row
    rows = [(bs[i:i + 1], cs[i:i + 1], stack[i:i + 1])
            for bs, cs, stack in maps[0].records() for i in range(len(bs))]
    rows.append(([1], [0], np.zeros((1, ring.dim(src[1] + twist - tgt[0])), dtype=np.int64)))
    maps.append(FreeMap(ring, src, tgt, rows[::-1], twist))
    # each group as one record in reverse order
    maps.append(FreeMap(ring, src, tgt, [(bs[::-1], cs[::-1], stack[::-1])
                                         for bs, cs, stack in maps[0].records()], twist))
    # moved onto a generator more on each side, and negated twice
    moved = FreeMap(ring, (0, *src), (5, *tgt), maps[0].records(1, 1, -1), twist)
    maps.append(FreeMap(ring, src, tgt, moved.records(-1, -1, -1), twist))
    # target 0 is in degree 5, where no column has a block
    assert not columns(moved)[0].any()
    assert [x.tolist() for x in columns(moved)[1:]] == [(-x % p).tolist()
                                                        for x in columns(maps[0])]
    cases = [(fmap, ref) for fmap in maps]
    # two generators onto one, a zero column, and the zero map
    targets = [2, None, 2, 4, 3]
    cases.append((FreeMap.selection(ring, src, tgt, targets, twist), DenseMap(
        ring, src, tgt, [vector(ring, tgt, g + twist, {} if c is None else {c: 1})
                         for g, c in zip(src, targets)], twist)))
    cases.append((FreeMap.zero(ring, src, tgt, twist), DenseMap(
        ring, src, tgt, [vector(ring, tgt, g + twist, {}) for g in src], twist)))
    # the inner map: two source generators of one degree, and one at -3
    # whose columns are empty
    inner_src, inner_twist = (0, 2, 0, -3, 1), 1
    inner_cols = block_columns(ring, inner_src, src, inner_twist, gen)
    inner_dense = [vector(ring, src, g + inner_twist, col)
                   for g, col in zip(inner_src, inner_cols)]
    inner_ref = DenseMap(ring, inner_src, src, inner_dense, inner_twist)
    inners = [from_columns(ring, inner_src, src, inner_cols, inner_twist),
              FreeMap.from_dense(ring, inner_src, src, inner_dense, inner_twist)]
    for fmap, want in cases:
        assert_same(fmap, want)
        for d in range(6):
            assert fmap.induced(d).tolist() == want.induced(d), d
        for inner in inners:
            assert_same(inner, inner_ref)
            got = [(bs, images.tolist()) for bs, images in fmap.compose(inner)]
            assert got == want.compose(inner_ref)
        kept = sorted({c for b in range(len(src)) for c, _ in want.blocks(b)})
        assert_same(fmap.restrict([4, 0, 2], kept), want.restrict([4, 0, 2], kept))
        if kept:
            dropped = kept[1:]
            with pytest.raises(SyzkitError):
                want.restrict(range(len(src)), dropped)
            with pytest.raises(SyzkitError, match="onto dropped generator"):
                fmap.restrict(range(len(src)), dropped)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_compose_block_by_block_matches_the_dense_reference(p):
    # outer: middle generators of degrees (0, 1, 1, 2) to targets of degrees
    # (1, 0, 2, 3), twist 2; inner: sources of degrees (1, 0, 2, 1), twist 1.
    # Every entry is p - 1, so at 2^31 - 1 three products over R_1 (x, y, z)
    # overflow int64 when they are summed before they are reduced
    ring = ring_from_strings(p, ["x", "y", "z"], ["x*y + 3*z^2"], degree_bound=6)

    def full(deg):
        return np.full(ring.dim(deg), p - 1, dtype=np.int64)

    v = full(2)
    mid, tgt, outer_twist = (0, 1, 1, 2), (1, 0, 2, 3), 2
    outer_blocks = [
        {0: full(1), 2: full(0)},
        {0: v, 3: full(0)},
        {0: v.copy(), 1: full(3)},  # the same piece on target 0 as column 1
        {1: full(4), 3: full(1)},
    ]
    src, inner_twist = (1, 0, 2, 1), 1
    inner_blocks = [
        {0: full(2), 1: full(1), 3: full(0)},  # a = 0 on middle generator 3
        {1: np.ones(1, dtype=np.int64), 2: full(0)},  # columns 1 - 2: cancels on target 0
        {2: full(2), 3: full(1)},
        {1: full(1)},  # meets no piece of middle generator 2, the one on target 1
    ]
    outer = from_columns(ring, mid, tgt, outer_blocks, outer_twist)
    inner = from_columns(ring, src, mid, inner_blocks, inner_twist)
    ref = DenseMap(ring, mid, tgt, [vector(ring, tgt, g + outer_twist, col)
                                    for g, col in zip(mid, outer_blocks)], outer_twist)
    inner_ref = DenseMap(ring, src, mid, [vector(ring, mid, g + inner_twist, col)
                                          for g, col in zip(src, inner_blocks)], inner_twist)
    want = ref.compose(inner_ref)
    got = [(bs, images.tolist()) for bs, images in outer.compose(inner)]
    assert got == want
    # the planted cancellation: column 1's image vanishes on target 0
    (bs, images), = [x for x in want if 1 in x[0]]
    offs = offsets(ring, tgt, src[1] + inner_twist + outer_twist)
    assert not any(x for row in images[offs[0]:offs[1]] for x in row)
    assert all(any(x for row in images for x in row) for _, images in want)


def _poly_entries(ring, source, target, twist, gen):
    """Random polynomial entries of the right degree, empty or of one to
    four monomials, with nonzero coefficients in -3p..3p (multiples of p
    included)."""
    base, p = ring.base, ring.char
    entries = [[{} for _ in source] for _ in target]
    for b, g in enumerate(source):
        for c, h in enumerate(target):
            e = g + twist - h
            if not 0 <= e <= ring.degree_bound or gen.random() < 0.25:
                continue
            mons = base.monomial_basis(e)
            picked = gen.choice(len(mons), min(len(mons), int(gen.integers(1, 5))),
                                replace=False)
            coeffs = [int(x) for x in gen.integers(-3 * p, 3 * p, size=len(picked))]
            entries[c][b] = {mons[i]: x or 1 for i, x in zip(picked.tolist(), coeffs)}
    return entries


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_from_poly_matrix_matches_the_per_entry_normal_forms(p, monkeypatch):
    # every entry against nf_matrix(e) times its vector looked up monomial
    # by monomial, with one product per entry degree, over a ring that
    # ends within D and one that does not, on negative generator degrees
    gen = np.random.default_rng(p % 997)
    rings = [ring_from_strings(p, ["x", "y", "z"], ["x^2 + y*z", "y^3"], degree_bound=6),
             ring_from_strings(p, ["x", "y"], ["x^2", "x*y + y^2", "y^3"], degree_bound=6)]
    assert [r.is_artinian_within_bound() for r in rings] == [False, True]
    source, target = (-1, 1, 2, 2), (-3, -1, 0, 1)
    products, real = [], freemod.matmul

    def spy(a, b, q):
        products.append(b.shape)
        return real(a, b, q)

    monkeypatch.setattr(freemod, "matmul", spy)
    for ring in rings:
        for twist in (0, 1):
            entries = _poly_entries(ring, source, target, twist, gen)
            products.clear()
            got = FreeMap.from_poly_matrix(ring, target, source, entries, twist)
            degrees = {g + twist - h for b, g in enumerate(source)
                       for c, h in enumerate(target) if entries[c][b]}
            assert len(products) == len(degrees)
            cols = [{c: normal_form(ring, entries[c][b], g + twist - h)
                     for c, h in enumerate(target) if entries[c][b]}
                    for b, g in enumerate(source)]
            assert equals(got, from_columns(ring, source, target, cols, twist))
    unit, zero = {(0, 0): 1}, {}
    got = FreeMap.from_poly_matrix(rings[1], (0, 0), (0,), [[unit], [zero]])
    assert [(c, x.tolist()) for c, x in blocks(got, 0)] == [(0, [1])]


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_from_poly_matrix_refuses_entries_above_the_bound_and_inhomogeneous_ones(p):
    r = ring_from_strings(p, ["x", "y"], ["x*y"], degree_bound=4)
    with pytest.raises(DegreeBoundError, match="normal form"):  # x^5 in degree 5 > D
        module_from_strings(r, [-3], [["x^5"]])
    with pytest.raises(HomogeneityError, match="not homogeneous"):
        FreeMap.from_poly_matrix(r, (0,), (2,), [[r.base.parse("x^2 + y")]])
    with pytest.raises(HomogeneityError, match=r"entry \(0,0\) has degree 1, expected 2"):
        FreeMap.from_poly_matrix(r, (0,), (2,), [[r.base.parse("x + y")]])


def test_columns_are_read_only():
    # the map keeps its own read-only copy of the pieces it is given
    ring = ring_from_strings(32003, ["x", "y"], [], degree_bound=6)
    piece = np.array([1, 2], dtype=np.int64)  # x + 2y
    fmap = from_columns(ring, (1,), (0,), [{0: piece}])
    col = np.array([1, 2], dtype=np.int64)
    dense = FreeMap.from_dense(ring, (1,), (0,), [col])
    before = fmap.induced(2).copy()
    piece[1] = 5
    col[1] = 5
    for m in (fmap, dense):
        with pytest.raises(ValueError):
            blocks(m, 0)[0][1][0] = 0
        assert np.array_equal(m.induced(2), before)


def pieces_by_pair(fmap):
    """{(b, c): the piece of column b on target generator c}, off the records."""
    return {(b, c): tuple(piece.tolist()) for bs, cs, stack in fmap.records()
            for b, c, piece in zip(bs.tolist(), cs.tolist(), stack)}


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_the_dual_swaps_generators_and_negates_degrees(p):
    ring = ring_from_strings(p, ["x", "y", "z"], ["x*y - z^2"], degree_bound=8)
    for twist in (0, 1, -1):
        fmap = sample_map(ring, twist, seed=p % 1000 + twist)
        assert pieces_by_pair(fmap)
        dual = fmap.dual()
        assert (dual.source_degrees, dual.target_degrees, dual.twist) == (
            tuple(-h for h in TARGET), tuple(-g for g in SOURCE), twist)
        assert pieces_by_pair(dual) == {(c, b): piece
                                        for (b, c), piece in pieces_by_pair(fmap).items()}
        back = dual.dual()
        assert (back.source_degrees, back.target_degrees, back.twist) == (SOURCE, TARGET, twist)
        assert pieces_by_pair(back) == pieces_by_pair(fmap)
    zero = FreeMap.zero(ring, SOURCE, TARGET, 1).dual()
    assert (zero.source_degrees, zero.target_degrees, zero.records()) == (
        (0, -1, -3, -1), (-1, -1, -1, -2, -2), [])


def test_compose_refuses_mismatched_degrees():
    ring = ring_from_strings(5, ["x", "y"], [], degree_bound=6)
    inner = identity(ring, (0, 1))
    outer = identity(ring, (0, 2))
    with pytest.raises(SyzkitError):
        outer.compose(inner)


def test_vector_and_pieces_invert_each_other_and_selection_keeps_degrees():
    ring = ring_from_strings(5, ["x", "y"], ["x*y"], degree_bound=6)
    # in degree 2 over generators in degrees 0, 2, 1: blocks R_2, R_0, R_1
    gens = (0, 2, 1)
    vec = vector(ring, gens, 2, {0: [3, 4], 1: 1})
    assert vec.tolist() == [3, 4, 1, 0, 0]
    assert [p.tolist() for p in pieces(ring, gens, 2, vec)] == [[3, 4], [1], [0, 0]]
    sel = FreeMap.selection(ring, (1, 2, 1), gens, [2, 1, None])
    assert sel.to_poly_matrix() == [[{}, {}, {}], [{}, {(0, 0): 1}, {}], [{(0, 0): 1}, {}, {}]]
    with pytest.raises(SyzkitError, match="cannot go to generator 0"):
        FreeMap.selection(ring, (1,), gens, [0])


def test_block_matrix_places_named_blocks_and_zeros_the_rest():
    out = block_matrix([1, 0, 2], [2, 1], {(0, 1): [[7]], (2, 0): [[1, 2], [3, 4]]})
    assert out.dtype == np.int64
    assert out.tolist() == [[0, 0, 7], [1, 2, 0], [3, 4, 0]]
    assert block_matrix([0, 0], [3], {}).shape == (0, 3)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def columns_of(fmaps):
    return [c for f in fmaps if f is not None for c in columns(f)]


# Digests of the columns that tensor_pair, induced_chain_map and
# solve_chain_self_maps produced on the README construct and period fixtures
# before the block index existed; the index must not change a single entry.
# The three-factor digests come from the left fold of pairwise products that
# tensor_many was before it built the product in one pass.
PINNED = {
    "tensor period1_x period1_y": "c67b83e30b3515dc",
    "induced period1_x period1_y 0": "ed3c089758c6b407",
    "induced period1_x period1_y 1": "80c367111f9d3f46",
    "tensor period1_x period4": "9ee0db0ea9af23d3",
    "induced period1_x period4 0": "ed3c089758c6b407",
    "induced period1_x period4 1": "4e7647ed4956de25",
    "tensor period1_x period1_y period4": "46375c873e9f8ccc",
    "induced period1_x period1_y period4 0": "0fd8f676907fd9ed",
    "induced period1_x period1_y period4 1": "39fa9c308bc655a9",
    "induced period1_x period1_y period4 2": "e2a2752039e6f34f",
    "solve period2 1": "d2700cc75b92ab5a",
    "solve period2 2": "aa90f2c97aba1155",
    "solve period2 3": "6bf1e4d26ece7793",
    "solve period2 4": "7ab656b532ee0faf",
    "solve period2 5": "a52f36056c41d734",
    "solve period2 6": "c685c047ba2aa6be",
    "solve period4 1": "888608b3c793f47b",
    "solve period4 2": "d2700cc75b92ab5a",
    "solve period4 3": "6aadff9f63b0e525",
    "solve period4 4": "9463bad87613edbf",
    "solve period4 5": "f98f87db11ed306a",
    "solve period4 6": "a52f36056c41d734",
}


def test_fixture_columns_are_unchanged():
    found = {}
    for names in [("period1_x", "period1_y"), ("period1_x", "period4"),
                  ("period1_x", "period1_y", "period4")]:
        cache = {}
        pairs = [read_complex_file(os.path.join(FIXTURES, n + ".complex"), None, cache)
                 for n in names]
        product = tensor_many([cx for cx, _ in pairs])
        key = " ".join(names)
        found[f"tensor {key}"] = digest(*columns_of(product.diffs))
        for i, (_, eta) in enumerate(pairs):
            phi = induced_chain_map(product, i, eta)
            found[f"induced {key} {i}"] = digest(*columns_of(phi.components))
        if len(names) == 3:
            # degree 2 in the order of the fold: by the degree of the first
            # two factors, then their labels in their own order
            assert product.labels[2] == [
                ((0, 0), (0, 0), (2, 0)), ((0, 0), (1, 0), (1, 0)), ((1, 0), (0, 0), (1, 0)),
                ((0, 0), (2, 0), (0, 0)), ((1, 0), (1, 0), (0, 0)), ((2, 0), (0, 0), (0, 0)),
            ]
    for name in ("period2", "period4"):
        cx, _ = read_complex_file(os.path.join(FIXTURES, name + ".complex"))
        for q in range(1, cx.window // 2 + 1):
            tau = consistent_twist(cx, q, q)
            if tau is not None:
                found[f"solve {name} {q}"] = digest(solve_chain_self_maps(cx, q, tau, q)[1])
    assert found == PINNED


def _reference_chain_system(cx, q, tau, j_lo):
    """The chain system written term by term: a full-width row block per
    generator e_b of F_j, to which each monomial of each entry of d_j(e_b)
    adds its multiplication map, reduced, at the offset of the unknown it
    multiplies, and from which d_{j-q} is subtracted at that of phi_j(e_b)."""
    from syzkit.freemod import free_mult_matrix

    ring, p = cx.ring, cx.ring.char
    offset, total = {}, 0
    for j in range(j_lo, cx.window + 1):
        for b, g in enumerate(cx.gen_degrees(j)):
            offset[j, b] = total
            total += component_dim(ring, cx.gen_degrees(j - q), g + tau)
    rows = [np.zeros((0, total), dtype=np.int64)]
    for j in range(j_lo + 1, cx.window + 1):
        low, dj = cx.gen_degrees(j - 1 - q), cx.diff(j)
        for b, g in enumerate(cx.gen_degrees(j)):
            block = np.zeros((component_dim(ring, low, g + tau), total), dtype=np.int64)
            for c, piece in enumerate(pieces(ring, dj.target_degrees, g, column(dj, b))):
                h = dj.target_degrees[c]
                for i in np.flatnonzero(piece):
                    mult = free_mult_matrix(ring, low, g - h, int(i), h + tau)
                    cols = slice(offset[j - 1, c], offset[j - 1, c] + mult.shape[1])
                    block[:, cols] = (block[:, cols] + int(piece[i]) * mult % p) % p
            lower = cx.diff(j - q).induced(g + tau)
            cols = slice(offset[j, b], offset[j, b] + lower.shape[1])
            block[:, cols] = (block[:, cols] - (-1) ** q * lower) % p
            rows.append(block)
    return np.concatenate(rows)


@pytest.mark.parametrize("p", [2**31 - 1, 32003])
def test_chain_system_matches_the_term_by_term_reference(p, monkeypatch):
    # the pinned digests above are all char 2.  Over a dense quadric the
    # differentials' entries are sums of several monomials.  Reducing x^2
    # gives the coefficients -2, -3, .., close to p, so in the second
    # complex, whose entries have degree 3 and coefficients close to p, a
    # block sums three products of about p^2 at one position: more than
    # int64 holds at p = 2^31 - 1 unless every term is reduced
    import syzkit.chainsolve as chainsolve
    from syzkit.complexes import FreeComplex
    from syzkit.linalg import kernel_basis
    from syzkit.modules import residue_field
    from syzkit.resolutions import resolve

    systems = []

    def kept(mat, p):
        systems.append(mat)
        return kernel_basis(mat, p)

    monkeypatch.setattr(chainsolve, "kernel_basis", kept)
    quadric = "x^2 + 2*x*y + 3*y^2 + 5*x*z + 7*y*z + 11*z^2"
    r = ring_from_strings(p, ["x", "y", "z"], [quadric], degree_bound=16)
    res = resolve(residue_field(r), 8)  # Betti numbers 1, 3, 4, 4, ...
    assert any(np.count_nonzero(piece) > 1 for f in res.diffs[1:]
               for _, _, stack in f.records() for piece in stack)
    # not a complex: the chain system is linear in any maps F_j -> F_{j-1}
    gens = [(3 * j, 3 * j + 3) for j in range(5)]
    rng = np.random.default_rng(0)
    maps = [None]
    for j in range(1, 5):
        cols = [rng.integers(p - 1000, p, size=component_dim(r, gens[j - 1], g)) for g in gens[j]]
        maps.append(FreeMap.from_dense(r, gens[j], gens[j - 1], cols))
    cubic = FreeComplex(r, gens, maps)
    solved = 0
    for cx in (res, cubic):
        for q in (1, 2, 3):
            for onset in range(cx.window - 2 * q + 1):
                tau = consistent_twist(cx, q, onset + q)
                if tau is None:
                    continue
                unknowns, basis = solve_chain_self_maps(cx, q, tau, onset + q)
                ref = _reference_chain_system(cx, q, tau, onset + q)
                assert np.array_equal(systems[-1], ref), (q, onset)
                assert np.array_equal(basis, kernel_basis(ref, p))
                assert basis.shape[0] == unknowns.total
                solved += 1
    assert solved == 9 + 4


def reference_act(ring, dim, monomial, gen_degrees, e, a, x):
    """freemod.act in Python integers, one monomial at a time: column
    (j, k) on generator b is monomial(e, j, a - g_b), the matrix of the
    j-th basis monomial of R_e on X_{a - g_b}, times the piece of column k
    of x on b."""
    p, de, r = ring.char, ring.dim(e), x.shape[1]
    so = [0]
    to = [0]
    for g in gen_degrees:
        so.append(so[-1] + dim(a - g))
        to.append(to[-1] + dim(a + e - g))
    out = [[0] * (de * r) for _ in range(to[-1])]
    for b, g in enumerate(gen_degrees):
        if so[b] == so[b + 1] or to[b] == to[b + 1]:
            continue
        for j in range(de):
            mat = monomial(e, j, a - g).tolist()
            for k in range(r):
                piece = [int(v) for v in x[so[b]:so[b + 1], k]]
                for t, row in enumerate(mat):
                    out[to[b] + t][j * r + k] = sum(int(m) * v for m, v in zip(row, piece)) % p
    return out


@pytest.mark.parametrize("p", [2, 32003, 2**31 - 1])
def test_act_matches_a_python_integer_reference(p):
    from syzkit.freemod import act
    from syzkit.modules import module_from_strings

    # dims 1, 2, 2, 1, 0, ...: R_e = 0 from e = 4 on
    ring = ring_from_strings(p, ["x", "y"], ["x^2 + 3*x*y", "y^3"], degree_bound=8)
    assert ring.hilbert_function(5) == [1, 2, 2, 1, 0, 0]
    module = module_from_strings(ring, [0, 1], [["x*y", "y"]])
    spaces = {
        "R": (ring.dim, ring.mult_maps, ring.mult_map),
        "M": (module.dim, module.action_matrix,
              lambda e, j, a: module.action_matrix(e, a)[j]),
    }
    # two equal degrees, a negative one, and one whose block is empty
    # below degree 3
    gen_degrees = (1, 1, -1, 3)
    gen = np.random.default_rng(p % 1009)
    checked = 0
    for name, (dim, stacks, monomial) in spaces.items():
        for a in range(-1, 4):
            for e in (0, 1, 2, 4):
                src = sum(dim(a - g) for g in gen_degrees)
                tgt = sum(dim(a + e - g) for g in gen_degrees)
                x = gen.integers(0, p, size=(src, 3))
                got = act(ring, dim, stacks, gen_degrees, e, a, x)
                want = reference_act(ring, dim, monomial, gen_degrees, e, a, x)
                assert got.dtype == np.int64
                assert got.shape == (tgt, ring.dim(e) * 3)
                assert got.tolist() == want, (name, a, e)
                checked += bool(got.any())
    assert checked > 20


def _row_selections(n, gen):
    """Empty, every row, a sorted half and every row in a shuffled order."""
    return [[], list(range(n)), sorted(gen.choice(n, n // 2, replace=False).tolist()),
            gen.permutation(n).tolist()]


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_induced_on_rows_is_those_rows_of_the_whole_component(p, monkeypatch):
    # induced(d, over, rows) is induced(d, over)[rows], over R and over a
    # module (R itself, and R/(x, y)), for empty, full, sorted and unsorted
    # selections; with maps with scalar pieces (sample_map, twist 0) and the
    # differentials of a resolution, whose components lie on both sides of
    # the size above which rows are gathered, and again with every
    # selection gathered
    from syzkit import freemod
    from syzkit.modules import free_module, module_from_strings, residue_field
    from syzkit.resolutions import resolve

    gen = np.random.default_rng(p % 1000)
    small = ring_from_strings(p, ["x", "y", "z"], ["x*y - z^2"], degree_bound=8)
    names = ["x", "y", "z", "w"]
    quadric = " + ".join(f"{c}*{u}*{v}" for c, (u, v) in zip(
        [1, 2, 3, 5, 7, 11, 13, 17, 19, 23], [(u, v) for i, u in enumerate(names) for v in names[i:]]))
    ring = ring_from_strings(p, names, [quadric], degree_bound=10)
    res = resolve(residue_field(ring), 4)
    maps = [(small, sample_map(small, t, seed=p % 97 + t)) for t in (0, 1, -1)]
    maps += [(ring, res.diffs[i]) for i in range(1, 5)]
    sides = set()
    for limit in (freemod._GATHER_MIN_CELLS, 0):
        monkeypatch.setattr(freemod, "_GATHER_MIN_CELLS", limit)
        for r, fmap in maps:
            for over in (None, free_module(r), module_from_strings(r, [0], [["x"], ["y"]])):
                for d in range(-1, 7 if r is small else 9):
                    whole = fmap.induced(d, over)
                    sides.add((over is None, whole.size > freemod._GATHER_MIN_CELLS))
                    for rows in _row_selections(whole.shape[0], gen):
                        got = fmap.induced(d, over, rows=rows)
                        assert got.shape == (len(rows), whole.shape[1])
                        assert np.array_equal(got, whole[rows]), (limit, d, rows)
    assert sides == {(True, True), (True, False), (False, True), (False, False)}
