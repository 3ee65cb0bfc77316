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
"""

import math
from dataclasses import dataclass

from . import freemod
from .chainsolve import PeriodicityCertificate, certify_periodicity
from .complexes import (
    ChainMap,
    FreeComplex,
    coker_module,
    cone,
    induced_chain_map,
    induced_on_cone,
    minimize_complex,
    tensor_many,
)
from .errors import SyzkitError, WindowError
from .linalg import rank, zeros
from .modules import GradedModule, ModuleMap, verify_ses
from .resolutions import estimate_complexity
from .rings import PolyRing, build_quotient


def detect_complex_periodicity(cx, window=None, seed=0, budget=64):
    """Least period n whose tail [n, window] carries a verified witness
    (onset 0), with the infeasibility records of every smaller shift.

    Returns None when no period exists within the window.
    """
    w = cx.window if window is None else min(window, cx.window)
    if w < 2:
        raise WindowError("periodicity detection needs window >= 2")
    return certify_periodicity(cx.slice_window(w), False, seed, budget)


def periodic_variable_complex(char, period, window, degree_bound=None, prefix="x"):
    """Rank-one complex over F_p[x_1..x_period]/(quadrics) with differentials
    cycling through the variables; periodic of exactly the given period.

    Returns (complex, eta) with eta the shift-`period` witness map.
    """
    if period < 1:
        raise SyzkitError("period must be >= 1")
    names = [f"{prefix}{i + 1}" for i in range(period)] if period > 1 else [prefix]
    bound = degree_bound if degree_bound is not None else window + 2
    base = PolyRing(char, names, bound)
    quadrics = []
    n = len(names)
    for i in range(n):
        for j in range(i, n):
            exps = [0] * n
            exps[i] += 1
            exps[j] += 1
            quadrics.append({tuple(exps): 1})
    ring = build_quotient(base, quadrics)
    gens = [(j,) for j in range(window + 1)]
    diffs = [None]
    for j in range(1, window + 1):
        var = (j - 1) % n
        exps = [0] * n
        exps[var] = 1
        diffs.append(
            freemod.FreeMap.from_poly_matrix(ring, gens[j - 1], gens[j], [[{tuple(exps): 1}]])
        )
    cx = FreeComplex(ring, gens, diffs)
    if not cx.verify():
        raise SyzkitError("periodic fixture differential does not square to zero")
    comps = []
    for j in range(window + 1):
        src = cx.gen_degrees(j)
        tgt = cx.gen_degrees(j - period)
        if not tgt:
            comps.append(freemod.FreeMap.zero(ring, src, tgt, -period))
            continue
        col = zeros(freemod.component_dim(ring, tgt, j - period), 1, ring.char)[:, 0]
        # c_{j-1} = (-1)^period c_j forces the alternating scalar below
        col[0] = ((-1) ** (period * j)) % ring.char
        comps.append(freemod.FreeMap(ring, src, tgt, [col], -period))
    eta = ChainMap(cx, cx, period, -period, comps)
    if not eta.verify():
        raise SyzkitError("periodic fixture witness fails the chain condition")
    return cx, eta


# -- the E-sequence ----------------------------------------------------------


@dataclass
class SesReport:
    index: int
    shift: int
    twist: int
    ok: bool
    detail: str


def _inclusion_chain_map(sub, amb):
    """Label-preserving inclusion of one tensor product into another."""
    ring = amb.ring
    pos = amb._label_pos
    column_lists = []
    for j in range(sub.window + 1):
        cols = []
        for lab, g in zip(sub.labels[j], sub.gens[j]):
            vec = zeros(freemod.component_dim(ring, amb.gen_degrees(j), g), 1, ring.char)[:, 0]
            if lab not in pos[j]:
                raise SyzkitError("truncated product label missing from ambient product")
            t = pos[j][lab]
            offs = freemod.component_offsets(ring, amb.gen_degrees(j), g)
            vec[offs[t]] = 1
            cols.append(vec)
        column_lists.append(cols)
    return ChainMap.from_columns(sub, amb, 0, 0, column_lists)


def _check_e_sequence(incl, proj, dmax):
    """Degreewise exactness of 0 -> E^i -> E^{i-1} -> shifted E^{i-1} -> 0."""
    p = incl.source.ring.char
    n, tau = proj.shift, proj.twist
    for j in range(incl.target.window + 1):
        inc_j = incl.component(j)
        proj_j = proj.component(j)
        composite = proj_j.compose(inc_j) if j <= incl.source.window else None
        if composite is not None and not composite.is_zero():
            return False, f"composite nonzero at homological degree {j}"
        degs = set()
        for g in incl.target.gen_degrees(j):
            for d in range(g, incl.target.ring.degree_bound + 1):
                degs.add(d)
        for d in sorted(degs):
            if d > dmax:
                continue
            mid = incl.target.component_dim(j, d)
            sub = incl.source.component_dim(j, d) if j <= incl.source.window else 0
            quot = incl.target.component_dim(j - n, d + tau)
            if mid != sub + quot:
                return False, (
                    f"rank identity fails at (j={j}, d={d}): {mid} != {sub}+{quot}"
                )
            if sub and rank(inc_j.induced(d), p) != sub:
                return False, f"inclusion not injective at (j={j}, d={d})"
            if quot and rank(proj_j.induced(d), p) != quot:
                return False, f"projection not surjective at (j={j}, d={d})"
    return True, ""


def build_e_sequence(factors, etas, dmax=None):
    """The truncated products E^0 .. E^c and the verified sequences linking them.

    E^i truncates the first i factors below their periods; the i-th sequence
    is 0 -> E^i -> E^{i-1} -> Sigma^{n_i} E^{i-1} -> 0.
    """
    c = len(factors)
    shifts = [eta.shift for eta in etas]
    complexes = []
    for i in range(c + 1):
        parts = [
            factors[k].truncate_below(shifts[k]) if k < i else factors[k]
            for k in range(c)
        ]
        complexes.append(tensor_many(parts))
    if dmax is None:
        dmax = complexes[0].ring.degree_bound
    reports = []
    for i in range(1, c + 1):
        amb = complexes[i - 1]
        sub = complexes[i]
        incl = _inclusion_chain_map(sub, amb)
        if not incl.verify():
            raise SyzkitError("truncation inclusion is not a chain map")
        proj = induced_chain_map(amb, i - 1, etas[i - 1])
        ok, detail = _check_e_sequence(incl, proj, dmax)
        reports.append(SesReport(i, etas[i - 1].shift, etas[i - 1].twist, ok, detail))
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


def run_construction(factors, etas, window=None, seed=0):
    """Tensor the periodic factors, iterate cones, and certify the witnesses.

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
    w = product.window if window is None else min(window, product.window)
    induced = [induced_chain_map(product, i, etas[i]) for i in range(c)]
    for m in induced:
        if not m.is_surjective():
            raise SyzkitError("induced map on the product is not surjective")
    for i in range(c):
        for j in range(i + 1, c):
            if not induced[i].compose(induced[j]).equals(induced[j].compose(induced[i])):
                raise SyzkitError(
                    f"induced maps {i} and {j} do not commute (sign convention bug)"
                )

    cones = []
    cone_bettis = [[product.minimal_betti(j) for j in range(w)]]
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
                if not remaining[a].compose(remaining[b]).equals(
                    remaining[b].compose(remaining[a])
                ):
                    raise SyzkitError("cone-induced maps stopped commuting")
        cones.append(cn)
        cone_bettis.append([cn.minimal_betti(j) for j in range(min(w, cn.window))])
        maps_on_current = [None] * (i + 1) + remaining

    est_window = min(w - 1, len(cone_bettis[0]) - 1)
    chain = [
        estimate_complexity(bt[: est_window + 1], window=est_window)
        for bt in cone_bettis
    ]
    values = [e.value for e in chain]
    strictly_decreasing = all(values[i] > values[i + 1] for i in range(len(values) - 1))

    e_complexes, ses_reports = build_e_sequence(factors, etas)
    last_e = e_complexes[c - 1]
    last_cert = detect_complex_periodicity(last_e, seed=seed)
    last_est = estimate_complexity(
        [last_e.minimal_betti(j) for j in range(min(w, last_e.window))],
        periodicity_hint=last_cert.period if last_cert else None,
        window=min(w, last_e.window) - 1,
    )
    config_ok = all(s == 1 for s in shifts[:-1]) and shifts[-1] > 2 and c >= 1
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


def corollary_module(result, window=8, margin=2):
    """Cokernel of the product's first differential, with reduction data
    transported from the cone triangles when the relevant levels are exact.

    Transport is only attempted when the product has homology concentrated
    in degree zero (it is then a resolution of its cokernel and each cone
    level presents the next module of the chain); otherwise the cokernel is
    still returned and the reduction data is reported as unavailable.
    """
    from .resolutions import complexity_of_module, resolve

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
        if k_mod.is_zero():
            est_k = estimate_complexity([0] * (window + 1), window=window)
        else:
            est_k, _ = complexity_of_module(k_mod, window, margin)
        ring = cn.ring
        # cone generators at this level: X-part (previous cone, twisted) then
        # the second summand carrying the previous cokernel's generators
        x_gens = tuple(g + twists[i] for g in prev_complex.gen_degrees(level - 1))
        ok = True
        detail = ""
        try:
            inc_cols = []
            for b, g in enumerate(prev_complex.gen_degrees(level - shifts[i])):
                vec = zeros(
                    freemod.component_dim(ring, cn.gen_degrees(level), g), 1, ring.char
                )[:, 0]
                offs = freemod.component_offsets(ring, cn.gen_degrees(level), g)
                vec[offs[len(x_gens) + b]] = 1
                inc_cols.append(vec)
            inc = ModuleMap(prev_module, k_mod, inc_cols)
            omega = coker_module(prev_complex, level - 1).shifted(twists[i])
            proj_cols = []
            for b, g in enumerate(cn.gen_degrees(level)):
                vec = zeros(
                    freemod.component_dim(ring, omega.gen_degrees, g), 1, ring.char
                )[:, 0]
                if b < len(x_gens):
                    offs = freemod.component_offsets(ring, omega.gen_degrees, g)
                    vec[offs[b]] = 1
                proj_cols.append(vec)
            proj = ModuleMap(k_mod, omega, proj_cols)
            if not (inc.verify() and proj.verify()):
                ok, detail = False, "transported maps not well defined"
            else:
                dmax = ring.degree_bound
                if not ring.is_artinian_within_bound():
                    dmax -= margin
                ok, detail = verify_ses(inc, proj, dmax)
        except SyzkitError as exc:
            ok, detail = False, str(exc)
        steps.append(TransportedStep(k_mod, shifts[i], ok, detail, est_k))
        complete = complete and ok
        prev_complex = cn
        prev_module = k_mod
    reddeg = min(shifts) if steps else math.inf
    note = "" if complete else "a transported sequence failed verification"
    return CorollaryResult(m, betti_ok, sup_product, steps, complete, note, reddeg)
