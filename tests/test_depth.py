"""Depth read from Koszul homology, checked against independent routes.

* the old algorithm: the minimal free resolution of the lifted presentation
  over the polynomial ring S = F_p[x_1..x_n], out to step n + 1;
* theorems: the depth of a complete intersection, invariance of Betti
  numbers, depth, Tor, Ext and the reduction search under a shift of the
  grading, and the depth formula for Tor-independent modules over a
  complete intersection (Huneke-Wiegand).
"""

import random
from collections import Counter

import pytest

from syzkit.errors import SyzkitError
from syzkit.homological import (
    check_depth_formula,
    ext_basis,
    reduction_search,
    tor,
    tor_as_module,
)
from syzkit.modules import (
    module_from_presentation,
    module_from_strings,
    residue_field,
    tensor_presentation,
)
from syzkit.resolutions import DepthReport, depth, depth_of_ring, resolve
from syzkit.rings import TOO_CLOSE, PolyRing, TruncatedQuotientRing, ring_from_strings

PRIMES = (2, 3, 5, 32003, 2**31 - 1)


def _form(rng, base, d, monomials=None):
    """A nonzero form of degree d with one to three terms."""
    mons = monomials if monomials is not None else base.monomial_basis(d)
    picked = rng.sample(mons, min(len(mons), rng.randint(1, 3)))
    return {m: rng.randrange(1, min(base.char, 7)) for m in picked}


def _random_case(rng):
    """Over F_p[2-4 vars]/(0-3 forms of degree 2-3): a cyclic, a
    two-generator or a tensor-product module, and whether to shift it by -1
    (about a third of the time).  Returns (build, bound, shift), where
    build(b) makes the unshifted module over the ring at degree bound b."""
    n, p, bound = rng.randint(2, 4), rng.choice(PRIMES), rng.randint(4, 8)
    base = PolyRing(p, "xyzw"[:n], bound)
    ideal = [_form(rng, base, rng.randint(2, 3)) for _ in range(rng.randint(0, 3))]
    kind = rng.choice(["cyclic", "two", "tensor"])
    if kind == "two":
        parts = [([0, 1], [[_form(rng, base, 2), _form(rng, base, 1)]])]
    else:
        parts = [([0], [[_form(rng, base, rng.randint(1, 2))] for _ in range(rng.randint(1, 2))])
                 for _ in range(1 + (kind == "tensor"))]

    def build(b):
        ring = TruncatedQuotientRing(PolyRing(p, "xyzw"[:n], b), ideal)
        mods = [module_from_presentation(ring, gens, cols) for gens, cols in parts]
        return tensor_presentation(*mods) if kind == "tensor" else mods[0]

    return build, bound, rng.random() < 0.3


def ambient_ring(r):
    """The quotient's polynomial ring viewed as a trivial quotient (cached)."""
    if getattr(r, "_ambient", None) is None:
        r._ambient = TruncatedQuotientRing(r.base, [])
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
    rels = m.relation_polys()
    nz = len(gens)
    for ideal_gen in r.ideal_gens:
        for s in range(nz):
            col = [{} for _ in range(nz)]
            col[s] = ideal_gen
            rels.append(col)
    return module_from_presentation(s_ring, gens, rels)


def proj_dim(res):
    """Projective dimension of a resolution that terminated, else None."""
    return None if res.terminated_at is None else res.terminated_at - 1


def _lifted_depth(m):
    """The old algorithm: pd over S from the resolution of the lifted module."""
    n = len(m.ring.vars)
    pd = proj_dim(resolve(lift_presentation(m), n + 1))
    return DepthReport(n - pd, pd, n, m.ring.degree_bound)


def _outcome(fn, *args):
    """fn's value, or the type and message of the SyzkitError it raised."""
    try:
        return fn(*args)
    except SyzkitError as exc:
        return (type(exc).__name__, str(exc))


def test_depth_matches_the_resolution_over_the_polynomial_ring():
    # both count the degree window from the module's lowest generator, so
    # they give the same answer or the same refusal, shifted modules too
    rng = random.Random(9)
    seen = Counter()
    for _ in range(48):
        build, bound, shift = _random_case(rng)
        m = build(bound).shifted(-1) if shift else build(bound)
        if m.is_zero():
            continue
        want, got = _outcome(_lifted_depth, m), _outcome(depth, m)
        if m.ring.is_artinian_within_bound() and not isinstance(want, DepthReport):
            # a ring that collapses within the bound is read to the collapse
            # with no margin, but S never collapses: the module is the same
            # at any larger bound, so ask S at one past its Betti numbers
            up = build(bound + len(m.ring.vars) + 2)
            lifted = _lifted_depth(up.shifted(-1) if shift else up)
            want = DepthReport(lifted.depth, lifted.pd_ambient, lifted.nvars, bound)
            seen["collapsed"] += 1
        assert got == want, m.ring.signature()
        if isinstance(want, DepthReport):
            seen["shifted answer" if shift else "answer"] += 1
        else:
            assert TOO_CLOSE in want[1], want  # a margin refusal, never a raw read
            seen["too close"] += 1
    assert seen["answer"] >= 10 and seen["shifted answer"] >= 3 and seen["too close"] >= 3
    assert seen["collapsed"] >= 1


@pytest.mark.parametrize("p", [3, 32003])
def test_depth_with_a_linear_form_in_the_ideal(p):
    # x + 2y in I: the variables act through their normal forms in R_1
    r = ring_from_strings(p, ["x", "y", "z"], ["x + 2*y", "z^2"], degree_bound=8)
    for m in (residue_field(r), module_from_strings(r, [0], [["y"]]),
              module_from_strings(r, [0, 1], [["y^2", "z"]])):
        assert depth(m) == _lifted_depth(m)
    assert depth(residue_field(r)) == DepthReport(0, 3, 3, 8)


def _complete_intersection(rng, p, n, c, bound=8):
    """c <= 2 quadrics in n variables: the j-th is x_j^2 plus random lex-lower
    terms free of x_1..x_{j-1}.  The lex-leading terms x_1^2, x_2^2 are
    coprime, so the quadrics are a Groebner basis with that initial ideal,
    hence a regular sequence, for every p."""
    base = PolyRing(p, [f"x{i}" for i in range(1, n + 1)], bound)
    gens = []
    for j in range(c):
        lead = tuple(2 if i == j else 0 for i in range(n))
        lower = [q for q in base.monomial_basis(2) if not any(q[:j]) and q < lead]
        f = _form(rng, base, 2, lower) if lower else {}
        f[lead] = 1
        gens.append(f)
    return TruncatedQuotientRing(base, gens)


@pytest.mark.parametrize("p", [2, 32003])
def test_depth_of_a_complete_intersection_is_n_minus_c(p):
    rng = random.Random(p)
    for n in range(1, 5):
        for c in range(min(2, n) + 1):
            r = _complete_intersection(rng, p, n, c)
            assert depth_of_ring(r) == DepthReport(n - c, c, n, 8), (n, c, r.ideal_gens)


def _moved_back(m, n, windows, s):
    """Minimal generator degrees of the resolution, depth, and Tor, Tor as a
    module and Ext^1, Ext^2 with N on either side, of M(-s) = m.shifted(s),
    with every degree moved back by s; a refusal as the tuple (type,
    message)."""
    ms = m.shifted(s)
    res_window, tor_window = windows

    def degrees():
        res = resolve(ms, res_window)
        return [[d - s for d in res.gen_degrees(i)] for i in range(res_window + 1)]

    def tor_dims(a, b):
        profile = tor(a, b, tor_window)
        dims = [{d - s: h for d, h in by_degree.items()} for by_degree in profile.dims]
        return [dims, profile.q, profile.q_rigor]

    def tor_modules(a, b):
        # generator degrees of each Tor_i module, and its dimensions in the
        # three degrees from its lowest generator up
        res = resolve(a, tor_window + 1)
        out = []
        for i in range(1, tor_window + 1):
            tq = tor_as_module(a, b, i, res=res)
            low = tq.min_degree()
            out.append(([g - s for g in tq.gen_degrees], [tq.dim(low + e) for e in range(3)]))
        return out

    def ext_classes(a, b, back):
        # Hom(F, N)_w reads N in degrees g + w: a shift of M lowers w by s,
        # a shift of N raises it by s
        return [[(c.internal_degree + back, [v.tolist() for v in c.values])
                 for c in ext_basis(a, b, t)] for t in (1, 2)]

    return [_outcome(degrees), _outcome(depth, ms), _outcome(tor_dims, ms, n),
            _outcome(tor_dims, n, ms), _outcome(ext_classes, ms, n, s),
            _outcome(ext_classes, n, ms, -s), _outcome(tor_modules, ms, n),
            _outcome(tor_modules, n, ms)]


def test_depth_is_invariant_under_a_shift():
    # beta_{i,d}(M(-s)) = beta_{i,d-s}(M), depth M(-s) = depth M,
    # Tor(M(-s), N)_d = Tor(M, N)_{d-s} with the same q, as modules too, and
    # Ext(M(-s), N)_w = Ext(M, N)_{w+s}, Ext(N, M(-s))_w = Ext(N, M)_{w-s}:
    # the same answer up to the shift, or the same refusal
    r = ring_from_strings(5, ["x", "y", "z"], ["x^2 + y*z", "y^2"], degree_bound=10)
    hyp = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=10)
    modules = [
        residue_field(r),
        module_from_strings(r, [0], [["x"]]),
        module_from_strings(r, [0, 1], [["z^2", "x"]]),
        tensor_presentation(module_from_strings(r, [0], [["x"]]),
                            module_from_strings(r, [0], [["z"]])),
        module_from_strings(hyp, [0], [["x"]]),
    ]
    assert [depth(m).depth for m in modules] == [0, 0, 0, 0, 1]
    cases = [(m, residue_field(m.ring), (3, 2)) for m in modules]
    xy = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=8)
    ci = ring_from_strings(5, ["x", "y", "z"], ["x^2 + y*z", "y^2"], degree_bound=4)
    cases += [
        # where a window counted in internal degrees breaks: R/(x) has
        # Betti numbers [1]*7, but it would read R_{D+1} for R/(x)(1) and
        # refuse R/(x)(-1), and read R_{D+1} for Tor against R/(x + y)(1);
        # depth would refuse k and k(-1) but answer k(1)
        (module_from_strings(xy, [0], [["x"]]), module_from_strings(xy, [0], [["x + y"]]), (6, 3)),
        (module_from_strings(xy, [0], [["x + y"]]), module_from_strings(xy, [0], [["x"]]), (6, 3)),
        (residue_field(ci), residue_field(ci), (3, 2)),
    ]
    rng = random.Random(11)
    while len(cases) < 20:
        build, bound, _ = _random_case(rng)
        m = build(bound)
        if not m.is_zero():
            cases.append((m, m, (3, 2)))  # M (x) M reaches the top of the window
    answered = Counter()
    for m, n, windows in cases:
        want = _moved_back(m, n, windows, 0)
        answered.update(i for i, got in enumerate(want) if not isinstance(got, tuple))
        for s in (-2, -1, 1, 2):
            assert _moved_back(m, n, windows, s) == want, (m.ring.signature(), s)
    assert _moved_back(*cases[5], 0)[0] == [[i] for i in range(7)]
    assert all(answered[i] >= 8 for i in range(8)), answered


def test_reduction_search_is_invariant_under_a_shift():
    # Ext(M(-s), M(-s)) = Ext(M, M), so a reduction of M(-s) is one of M
    # moved by s: the same complexity chain, classes of the same degrees,
    # step modules shifted by s and the same checks; or the same refusal
    xx = ring_from_strings(2, ["x", "y"], ["x^2", "y^2"], degree_bound=12)
    xy = ring_from_strings(3, ["x", "y"], ["x*y"], degree_bound=12)
    ci = ring_from_strings(5, ["x", "y", "z"], ["x^2 + y*z", "y^2"], degree_bound=10)

    def moved_back(m, s):
        seq = reduction_search(m.shifted(s), max_degree=2, window=9)
        steps = [(step.degree, step.eta.internal_degree, [g - s for g in step.module.gen_degrees],
                  step.ses_ok, step.depth_preserved) for step in seq.steps]
        return seq.chain_values(), steps

    refusal = "needs degree bound 11, have 10"
    cases = [  # with the chain and the class degrees, or the refusal, at s = 0
        (residue_field(xx), ([2, 1, 0], [1, 1])),
        (residue_field(xy), ([1, 0], [1])),
        (module_from_strings(xy, [0], [["x"]]), ([1, 0], [2])),
        (residue_field(ci), refusal),
        (module_from_strings(ci, [0], [["x"]]), refusal),
    ]
    for m, expected in cases:
        want = _outcome(moved_back, m, 0)
        if expected == refusal:
            assert want[0] == "DegreeBoundError" and refusal in want[1], want
        else:
            chain, steps = want
            assert (chain, [step[0] for step in steps]) == expected
            assert all(ses_ok and kept for *_, ses_ok, kept in steps)
        for s in (-2, -1, 1, 2):
            assert _outcome(moved_back, m, s) == want, (m.ring.signature(), s)


def test_tor_independent_pairs_satisfy_the_depth_formula():
    # Huneke-Wiegand: over a complete intersection, Tor_i(M, N) = 0 for all
    # i >= 1 gives depth M + depth N = depth R + depth(M (x) N)
    rng = random.Random(5)
    issued = 0
    for case in range(12):
        p = (2, 32003)[case % 2]
        n = 3 + case % 2
        r = _complete_intersection(rng, p, n, 1 + case % 2, bound=10)
        base = r.base

        def cyclic():
            cols = [[_form(rng, base, 1)] for _ in range(rng.randint(1, 2))]
            return module_from_presentation(r, [0], cols)

        m, n_mod = cyclic(), cyclic()
        if m.is_zero() or n_mod.is_zero():
            continue
        try:
            report = check_depth_formula(m, n_mod, window=3)
        except SyzkitError:
            continue  # q not rigorous, or a window too small: no verdict
        if report.q == 0:
            issued += 1
            assert report.verdict, (case, report.lines())
    assert issued >= 3
