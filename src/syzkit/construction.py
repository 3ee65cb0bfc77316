"""Periodicity certificates of complexes and the periodic-factor tensor/cone
pipeline.

A complex is periodic of period n when it carries a chain self-map of
shift n whose components are isomorphisms from degree n on, and no such
map of smaller shift exists.  `detect_complex_periodicity` asks the one
certificate engine, `chainsolve.certify_periodicity`, with the onset fixed
at 0.  Certificates are self-verifying: the witness map is checked
exactly, and every smaller shift comes with the reason it is infeasible
(degree obstruction, empty solution space, or a forced-zero scalar block;
a failed bounded search is recorded as non-rigorous).

The sequences linking the truncated products are checked exact in every
internal degree at once, by graded Nakayama on their free terms.
"""

import math
from dataclasses import dataclass

from . import freemod
from .chainsolve import PeriodicityCertificate, certify_periodicity
from .complexes import (
    ChainMap,
    FreeComplex,
    _agree,
    _product_labels,
    coker_module,
    cone,
    induced_chain_map,
    induced_on_cone,
    minimize_complex,
    tensor_many,
)
from .errors import SyzkitError, WindowError
from .linalg import rank
from .modules import GradedModule, ModuleMap, verify_ses
from .resolutions import complexity_of_module, estimate_complexity, resolve


def detect_complex_periodicity(cx, window=None, seed=0):
    """Least period n whose tail [n, window] carries a verified witness
    (onset 0), with the infeasibility records of every smaller shift.

    Returns None when no period exists within the window.
    """
    w = cx.window if window is None else min(window, cx.window)
    if w < 2:
        raise WindowError("periodicity detection needs window >= 2")
    return certify_periodicity(cx.slice_window(w), False, seed)


# -- the E-sequence ----------------------------------------------------------


@dataclass
class SesReport:
    index: int
    shift: int
    twist: int
    ok: bool
    detail: str


def _check_e_sequence(incl, proj):
    """Exactness of 0 -> E^i -> E^{i-1} -> Sigma^n E^{i-1} -> 0 in every
    internal degree.  Term j is 0 -> A -> B -> C -> 0, free modules with C =
    E^{i-1}_{j-n} twisted by tau, exact iff (a) proj o inc = 0, (b) B's
    generator degrees are A's and C's, (c) inc's scalar block has rank |A|
    and (d) proj's full row rank.  Exact terms split (C is free): hence (b)
    by Hilbert series, and (c), (d) mod m.  Conversely (d) makes proj onto
    (graded Nakayama), so ker proj is free with A's degrees by (b); by (a)
    and (c) inc maps A onto it mod m, so onto (Nakayama), hence isomorphically."""
    p, tau = incl.target.ring.char, proj.twist
    for j in range(incl.target.window + 1):
        inc_j, proj_j = incl.component(j), proj.component(j)
        if any(images.any() for _, images in proj_j.compose(inc_j)):
            return False, f"composite nonzero at homological degree {j}"
        quot = tuple(h - tau for h in proj_j.target_degrees)
        if sorted(inc_j.target_degrees) != sorted(inc_j.source_degrees + quot):
            return False, f"generator degrees do not add up at homological degree {j}"
        if rank(inc_j.scalar_block(), p) != len(inc_j.source_degrees):
            return False, f"inclusion not split injective at homological degree {j}"
        if not proj_j.degreewise_surjective():
            return False, f"projection not surjective at homological degree {j}"
    return True, ""


def build_e_sequence(product, induced):
    """The truncated products E^0 .. E^c and the verified sequences linking them.

    E^0 is the tensor product of the factors, and induced lists the maps
    that the factors' periodicity maps, of shifts n_1 .. n_c, induce on it.
    E^i is the subcomplex of E^{i-1} on the labels with a_i < n_i, so it
    truncates the first i factors below their periods, over the product's
    ring and window.  The i-th sequence is
    0 -> E^i -> E^{i-1} -> Sigma^{n_i} E^{i-1} -> 0, with the i-th induced
    map, restricted to E^{i-1}, as its projection, checked exact in every
    internal degree.
    """
    complexes, reports = [product], []
    maps = induced
    for i in range(1, len(induced) + 1):
        amb, proj = complexes[-1], maps[0]
        keep = [[b for b, lab in enumerate(row) if lab[i - 1][0] < proj.shift]
                for row in _product_labels(amb)]
        sub = amb.subcomplex(keep)
        incl = ChainMap(sub, amb, 0, 0, [
            freemod.FreeMap.selection(amb.ring, sub.gen_degrees(j), amb.gen_degrees(j), keep[j])
            for j in range(amb.window + 1)
        ])
        if not incl.verify():
            raise SyzkitError("truncation inclusion is not a chain map")
        ok, detail = _check_e_sequence(incl, proj)
        reports.append(SesReport(i, proj.shift, proj.twist, ok, detail))
        complexes.append(sub)
        maps = [m.restrict(sub, keep) for m in maps[1:]]
    return complexes, reports


# -- the full pipeline --------------------------------------------------------


@dataclass
class ConstructionResult:
    product: FreeComplex
    induced_maps: list
    cones: list                      # C(eta_1), C(eta_2 on C_1), ...
    cone_bettis: list                # minimal Betti tables, product first
    complexity_chain: list           # estimates, product first
    chain_strictly_decreasing: bool
    e_complexes: list
    ses_reports: list
    last_e_certificate: PeriodicityCertificate | None
    last_e_complexity: object
    witness_configuration: bool
    infinite_ci_witness: bool
    witness_reason: str
    window: int

    def shifts(self):
        return [m.shift for m in self.induced_maps]


def _commute(a, b):
    """Whether the chain self-maps a and b graded-commute:
    a_{j-n} b_j = (-1)^(mn) b_{j-m} a_j for every j, with n and m the shifts
    of b and a, the sign that the Koszul signs of `induced_chain_map` give.
    A composite whose outer component index is negative, or past the
    window, is zero."""
    for j in range(b.source.window + 1):
        sides = []
        for outer, inner in ((a, b), (b, a)):
            first = outer.component(j - inner.shift)
            sides.append([] if first is None else first.compose(inner.component(j)))
        if not _agree(*sides, (-1) ** (a.shift * b.shift), a.source.ring.char):
            return False
    return True


def run_construction(factors, etas, seed=0):
    """Tensor the periodic factors, iterate cones, and certify the witnesses.

    The product and the maps the factors' periodicity maps induce on it are
    built once; the truncated products E^i are cut out of that product.

    Verifies: factor periodicity (detector, not trust), chain conditions,
    surjectivity, pairwise commutation, cone complexity drops, exactness of
    every linking sequence, and the period of the last truncated product.
    """
    if len(factors) != len(etas) or not factors:
        raise SyzkitError("need one periodicity map per factor")
    c = len(factors)
    shifts = []
    for fac, eta in zip(factors, etas):
        if eta.source is not fac or eta.target is not fac:
            raise SyzkitError("periodicity map must be a self-map of its factor")
        if not eta.verify() or not eta.is_surjective() or not eta.iso_range_ok(eta.shift):
            raise SyzkitError("supplied factor map is not a periodicity witness")
        cert = detect_complex_periodicity(fac, seed=seed)
        if cert is None or cert.period != eta.shift:
            raise SyzkitError(
                "factor is not periodic of the claimed period "
                f"(detector: {cert.period if cert else None}, claimed: {eta.shift})"
            )
        shifts.append(eta.shift)

    product = tensor_many(factors)
    w = product.window
    induced = [induced_chain_map(product, i, etas[i]) for i in range(c)]
    e_complexes, ses_reports = build_e_sequence(product, induced)
    for m in induced:
        if not m.is_surjective():
            raise SyzkitError("induced map on the product is not surjective")
    for i in range(c):
        for j in range(i + 1, c):
            if not _commute(induced[i], induced[j]):
                raise SyzkitError(
                    f"induced maps {i} and {j} do not commute (sign convention bug)"
                )

    cones = []
    cone_bettis = [product.minimal_bettis(w)]
    maps_on_current = induced
    for i in range(c):
        cn = cone(maps_on_current[i])
        remaining = []
        for k in range(i + 1, c):
            ind = induced_on_cone(cn, maps_on_current[k])
            if not ind.is_surjective():
                raise SyzkitError("induced cone map lost surjectivity")
            remaining.append(ind)
        for a in range(len(remaining)):
            for b in range(a + 1, len(remaining)):
                if not _commute(remaining[a], remaining[b]):
                    raise SyzkitError("cone-induced maps stopped commuting")
        cones.append(cn)
        cone_bettis.append(cn.minimal_bettis(w))
        maps_on_current = [None] * (i + 1) + remaining

    chain = [estimate_complexity(bt, window=w - 1) for bt in cone_bettis]
    values = [e.value for e in chain]
    strictly_decreasing = all(values[i] > values[i + 1] for i in range(len(values) - 1))

    last_e = e_complexes[c - 1]
    last_cert = detect_complex_periodicity(last_e, seed=seed)
    last_est = estimate_complexity(
        last_e.minimal_bettis(w),
        periodicity_hint=last_cert.period if last_cert else None,
        window=w - 1,
    )
    config_ok = all(s == 1 for s in shifts[:-1]) and shifts[-1] > 2
    witness = False
    if last_cert is None:
        reason = "no periodicity certificate for the last truncated product"
    elif last_est.value != 1:
        reason = f"last truncated product has complexity {last_est.value}, not 1"
    elif last_cert.period <= 2:
        reason = (
            f"period {last_cert.period} <= 2 is consistent with finite "
            "quasi-deformation dimension; witness refused"
        )
    elif not config_ok:
        reason = "factor shifts do not match the required configuration"
    else:
        witness = True
        reason = (
            f"complexity-one subcomplex certified periodic of period "
            f"{last_cert.period} > 2"
        )
    return ConstructionResult(
        product, induced, cones, cone_bettis, chain, strictly_decreasing,
        e_complexes, ses_reports, last_cert, last_est, config_ok, witness,
        reason, w,
    )


# -- cokernel modules and transported witnesses -------------------------------


@dataclass
class TransportedStep:
    module: GradedModule
    shift: int
    ses_ok: bool
    detail: str
    complexity: object


@dataclass
class CorollaryResult:
    module: GradedModule
    betti_matches_product: bool
    sup_product: int | None
    steps: list
    transport_complete: bool
    transport_note: str
    reddeg_lower_bound: float


def corollary_module(result, window=8):
    """Cokernel of the product's first differential, with reduction data
    transported from the cone triangles when the relevant levels are exact.

    Transport is only attempted when the product has homology concentrated
    in degree zero (it is then a resolution of its cokernel and each cone
    level presents the next module of the chain); otherwise the cokernel is
    still returned and the reduction data is reported as unavailable.
    A window too short to estimate complexity is refused.
    """
    zero = estimate_complexity([0] * (window + 1), window=window)  # of a zero module
    product = result.product
    if not product.is_minimal():
        product = minimize_complex(product)
    m = coker_module(product, 0)
    sup_product = product.sup_within_window()
    if sup_product != 0:
        # the product is not a resolution of its cokernel: the Betti
        # comparison is void and the cone levels carry extra homology
        return CorollaryResult(
            m, False, sup_product, [], False,
            "product has homology above degree zero; cone levels do not "
            "present the reduction modules", math.inf,
        )
    res = resolve(m, min(window, product.window - 1))
    betti_ok = res.betti() == [product.rank(j) for j in range(res.window + 1)]

    shifts = result.shifts()
    twists = [mp.twist for mp in result.induced_maps]
    steps = []
    complete = True
    level = 0
    prev_complex = product
    prev_module = m
    for i, cn in enumerate(result.cones):
        level += shifts[i]
        k_mod = coker_module(cn, level)
        est_k = zero if k_mod.is_zero() else complexity_of_module(k_mod, window)[0]
        ring = cn.ring
        # cone generators at this level: the nx of the X-part (previous
        # cone, twisted) then the second summand carrying the previous
        # cokernel's generators
        gens = cn.gen_degrees(level)
        nx = len(prev_complex.gen_degrees(level - 1))
        ok = True
        detail = ""
        try:
            z_gens = prev_complex.gen_degrees(level - shifts[i])
            inc = ModuleMap(prev_module, k_mod, freemod.FreeMap.selection(
                ring, z_gens, gens, [nx + b for b in range(len(z_gens))]
            ))
            omega = coker_module(prev_complex, level - 1).shifted(twists[i])
            proj = ModuleMap(k_mod, omega, freemod.FreeMap.selection(
                ring, gens, omega.gen_degrees, [b if b < nx else None for b in range(len(gens))]
            ))
            if not (inc.verify() and proj.verify()):
                ok, detail = False, "transported maps not well defined"
            else:
                ok, detail = verify_ses(inc, proj)
        except SyzkitError as exc:
            ok, detail = False, str(exc)
        steps.append(TransportedStep(k_mod, shifts[i], ok, detail, est_k))
        complete = complete and ok
        prev_complex = cn
        prev_module = k_mod
    reddeg = min(shifts) if steps else math.inf
    note = "" if complete else "a transported sequence failed verification"
    return CorollaryResult(m, betti_ok, sup_product, steps, complete, note, reddeg)
