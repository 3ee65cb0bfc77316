"""Tor, Ext, extension pushouts, complexity-reduction witnesses, and the
depth-formula verifier.

Tor_i(M, N) is the degreewise homology of (minimal free resolution of M)
tensored with N.  The largest nonvanishing index q carries a rigor flag:
the tail is certified either by finite projective dimension or by the
resolution's periodicity certificate (`detect_resolution_periodicity`):
from onset + period on, the tensored complex repeats, so one vanishing
period forces all later ones.  Internal degrees are read in the ring's
degree window over the least generator degree of F_0 (x) N
(`rings.TruncatedQuotientRing.degree_window`), so a shift of M or N moves
every dimension by the shift; reports carry the top of that window.

Tor and Ext are the homology (`modules.Homology`) of F (x) N and of
C_k = Hom(F_{-k}, N), for F the minimal free resolution of M, with the
matrices of `freemod.FreeMap.induced` over N: Hom(d_i, N) is
`d_i.dual().induced(w, N)`, which also serves the pushout's cocycle
check.  Tor_i as a module reads the same homology, R
acting on F_i (x) N, a free sum of copies of N, through `freemod.act`, so
`check_depth_formula` builds one homology for Tor and for Tor_q.  They
refuse modules over different rings, and a resolution that is not of M or
does not know F_{i+1}; the resolution is read only through `module`,
`gen_degrees`, `diff` and `window`.
"""

import math
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from . import freemod
from .errors import SyzkitError, WindowError
from .linalg import matvec, seeded_combinations
from .modules import (
    GradedModule,
    Homology,
    ModuleMap,
    free_module,
    generator_matrix,
    minimal_generators_in,
    tensor_presentation,
    verify_ses,
)
from .resolutions import (
    complexity_of_module,
    depth,
    depth_of_ring,
    detect_resolution_periodicity,
    kernel_generators,
    resolve,
    syzygy,
)

# -- Tor ------------------------------------------------------------------


@dataclass
class TorProfile:
    dims: list                    # dims[i]: dict internal degree -> k-dimension
    window: int
    internal_bound: object        # int, or inf over a ring collapsing within the bound
    q: int
    q_rigor: str                  # finite-pd | periodic-tail | window-only
    degree_bound: int

    @property
    def rigorous(self):
        return self.q_rigor in ("finite-pd", "periodic-tail")

    def total(self, i):
        return sum(self.dims[i].values())


def _homology(m, n, res, steps, what, hom):
    """(res, the homology of F (x) N, or of C_k = Hom(F_{-k}, N) when hom),
    F the resolution res of M, made out to `steps` when res is None."""
    if not m.ring.same_ring(n.ring):
        raise SyzkitError(f"{what} needs modules over a common ring")
    if res is None:
        res = resolve(m, steps)
    elif res.module is not m:
        raise SyzkitError(f"{what} needs a resolution of its first module")
    res.require(steps, what)
    if not hom:
        return res, res.homology(n)
    # d_k = Hom(d_{1-k}, N), with each d_i dualised once
    dual = cache(lambda i: res.diff_or_zero(i).dual())
    return res, Homology(m.ring, lambda k, w: dual(1 - k).induced(w, n))


def _tensor_window(res, n, i_max):
    """The degree window of F_i (x) N for i <= i_max: from the start of the
    resolution's window plus N's, collapsing above the largest of F_i (x) N."""
    low = res.low + n.min_degree()
    high = max(g for i in range(i_max + 1) for g in res.gen_degrees(i))
    return res.ring.degree_window(low, high + max(n.gen_degrees, default=0))


def tor(m, n, window, res=None):
    """Graded dimensions of Tor_i(M, N) for i <= window."""
    if window < 0:
        raise WindowError(f"Tor needs a window >= 0, got {window}")
    res, homology = _homology(m, n, res, window + 1, f"Tor up to degree {window}", False)
    return _tor_profile(res, homology, n, window)


def _tor_profile(res, homology, n, window):
    """`tor` read from the homology of F (x) N."""
    degrees = _tensor_window(res, n, window)
    dims = [{d: h for d in range(degrees.low, degrees.top + 1) if (h := homology.dim(i, d))}
            for i in range(window + 1)]
    q = max((i for i in range(window + 1) if dims[i]), default=0)
    if res.terminated_at is not None:
        rigor = "finite-pd"
    else:
        rigor = "window-only"
        cert = detect_resolution_periodicity(res)
        if cert is not None:
            period, onset = cert.period, cert.onset
            if q <= onset + period and window >= onset + 2 * period + 1:
                rigor = "periodic-tail"
    internal_bound = math.inf if degrees.certified == degrees.top else degrees.top
    return TorProfile(dims, window, internal_bound, q, rigor, res.ring.degree_bound)


def tor_as_module(m, n, i, res=None):
    """Tor_i(M, N) with its module structure.

    i = 0 returns the presented tensor product; i >= 1 reconstructs a
    presentation from the homology subquotient (generators degree-ascending,
    relations through the same certified kernel machinery as resolutions).
    """
    if i < 0:
        raise SyzkitError(f"Tor_{i} as a module needs an index >= 0")
    if i == 0:
        return tensor_presentation(m, n)
    res, homology = _homology(m, n, res, i + 1, f"Tor_{i} as a module", False)
    return _tor_module(res, homology, n, i)


def _tor_module(res, homology, n, i):
    """`tor_as_module` for i >= 1, read from the homology of F (x) N: R acts
    on F_i (x) N, the free sum of N(-g), through `freemod.act`."""
    ring = res.ring
    spaces = homology.module(i, partial(freemod.act, ring, n.dim, n.action_matrix,
                                        res.gen_degrees(i)))
    degrees = _tensor_window(res, n, i)
    mingens = minimal_generators_in(spaces, degrees.low, degrees.top)
    if not mingens:
        return free_module(ring, ())
    gens = tuple(d for d, _ in mingens)
    rels, hi, _ = kernel_generators(
        ring, gens, partial(generator_matrix, spaces, mingens), degrees.low
    )
    module = GradedModule(ring, gens, rels or freemod.FreeMap.zero(ring, (), gens))
    for d in range(degrees.low, hi + 1):
        if module.dim(d) != spaces.dim(d):
            raise SyzkitError(
                "homology presentation mismatch in degree "
                f"{d}: {module.dim(d)} != {spaces.dim(d)}"
            )
    return module


# -- Ext ------------------------------------------------------------------


@dataclass
class ExtClass:
    t: int
    internal_degree: int
    values: list                  # per generator of F_t: vector in N coordinates
    source: GradedModule = field(repr=False)
    target: GradedModule = field(repr=False)
    resolution: object = field(repr=False)


def ext_basis(m, n, t, res=None):
    """Deterministic k-basis of Ext^t(M, N) by internal degree.

    Representative cocycles in Hom(F_t, N), modulo precompositions with the
    differential.  Hom(F_t, N)_w is N in degrees g + w: w runs while N is
    read in ring degrees e <= D above its lowest generator, as N's degree
    window counts them, so a shift of M or N moves every class by the shift.
    """
    if t < 0:
        raise SyzkitError("Ext degree must be >= 0")
    res, homology = _homology(m, n, res, t + 1, f"Ext^{t}", True)
    gens_t = res.gen_degrees(t)
    if not gens_t:
        return []
    top = max(gens_t + res.gen_degrees(t + 1) + res.gen_degrees(t - 1))
    window = m.ring.degree_window(n.min_degree(), max(n.gen_degrees, default=0))
    out = []
    # not window.top: over a ring that collapses within D it stops below
    # classes that the reads up to e = D find
    for w in range(window.low - top, window.low + window.bound - top + 1):
        for rep in homology.classes(-t, w).T:
            # the values on the generators of F_t, split by the Hom sizes
            cuts = np.cumsum([n.dim(g + w) for g in gens_t[:-1]])
            out.append(ExtClass(t, w, np.split(rep.copy(), cuts), m, n, res))
    return out


# -- pushout and reduction --------------------------------------------------


@dataclass
class PushoutResult:
    module: GradedModule
    eta: ExtClass
    ses_ok: bool
    ses_detail: str
    inclusion: ModuleMap = field(default=None, repr=False)
    projection: ModuleMap = field(default=None, repr=False)


def pushout_extension(eta):
    """The middle module of the extension 0 -> N -> K -> Omega^{t-1}(M) -> 0
    built from a self-extension class (N = M), with the sequence verified
    degreewise.
    """
    m = eta.source
    if eta.target is not m:
        raise SyzkitError("pushout needs a self-extension class")
    t, w = eta.t, eta.internal_degree
    if t < 1:
        raise SyzkitError("pushout needs cohomological degree >= 1")
    res = eta.resolution
    ring = m.ring
    res.require(t + 1, f"the pushout of a degree-{t} class")
    if res.gen_degrees(t + 1):  # eta must vanish on d_{t+1}
        d_up = res.diff(t + 1).dual().induced(w, m)
        if matvec(d_up, np.concatenate(eta.values), ring.char).any():
            raise SyzkitError("cocycle check failed; malformed extension class")

    # K is generated by M(-w) (the first nm generators) and F_{t-1}
    m_gens = tuple(g - w for g in m.gen_degrees)
    f_gens = res.gen_degrees(t - 1)
    gens = m_gens + f_gens
    nm = len(m_gens)
    # relations: M's, then per generator b of F_t, lift(eta(e_b)) - d_t(e_b)
    mr, t_gens = m.relations, res.gen_degrees(t)
    lifted = [b for b, g in enumerate(t_gens) if m.dim(g + w) > 0 and eta.values[b].any()]
    lifts = freemod.FreeMap.from_dense(
        ring, [t_gens[b] + w for b in lifted], m.gen_degrees,
        [m.lift_element(t_gens[b] + w, eta.values[b]) for b in lifted])
    nr = len(mr.source_degrees)
    records = mr.records() + res.diff(t).records(nr, nm, -1)
    records += [(np.array(lifted, dtype=np.intp)[bs] + nr, cs, stack)
                for bs, cs, stack in lifts.records()]
    k_mod = GradedModule(ring, gens, freemod.FreeMap(
        ring, [e - w for e in mr.source_degrees] + list(t_gens), gens, records))

    # the two maps of the extension
    m_shift = m.shifted(-w)
    inc = ModuleMap(m_shift, k_mod, freemod.FreeMap.selection(ring, m_gens, gens, range(nm)))

    omega = syzygy(res, t - 1)
    if t == 1:  # F_0 goes onto M = Omega^0 through the resolution's cover
        free = freemod.FreeMap(ring, gens, omega.gen_degrees, res.cover.records(nm))
    else:
        free = freemod.FreeMap.selection(
            ring, gens, omega.gen_degrees, [None] * nm + list(range(len(f_gens)))
        )
    proj = ModuleMap(k_mod, omega, free)
    if not (inc.verify() and proj.verify()):
        raise SyzkitError("pushout maps are not well defined; internal error")
    ok, detail = verify_ses(inc, proj)
    return PushoutResult(k_mod, eta, ok, detail, inc, proj)


@dataclass
class ReductionStep:
    module: GradedModule          # K_i
    eta: ExtClass | None
    degree: int                   # cohomological degree |eta_i|
    complexity: object            # estimate for K_i
    ses_ok: bool
    depth_preserved: bool = True


@dataclass
class ReductionSequence:
    start: GradedModule
    start_complexity: object
    steps: list
    reddeg_lower_bound: float

    def chain_values(self):
        return [self.start_complexity.value] + [s.complexity.value for s in self.steps]


REDUCTION_COMBINATIONS = 64  # seeded combinations of Ext classes per degree
REDUCTION_STEPS = 10  # most reduction steps searched from one module


def reduction_search(m, max_degree=3, window=10, seed=0):
    """Greedy search for self-extension classes that strictly drop complexity.

    Basis classes first (cohomological degree 1..max_degree ascending, then
    internal degree), then seeded random combinations within one internal
    degree.  Absence of a result is not a proof of irreducibility.  The
    accepted module's depth is carried to the next step.
    """
    if max_degree < 1:
        raise SyzkitError(f"reduction search needs max_degree >= 1, got {max_degree}")
    if seed < 0:
        raise SyzkitError(f"reduction search needs a seed >= 0, got {seed}")
    est0, _ = complexity_of_module(m, window)
    if est0.value == 0:
        return ReductionSequence(m, est0, [], math.inf)
    if est0.value == math.inf:
        return None  # no finite estimate to reduce from
    rng = np.random.default_rng(seed)
    current, current_est = m, est0
    current_depth = None
    steps = []
    for _ in range(REDUCTION_STEPS):
        if current_est.value == 0:
            break
        found = None
        for t in range(1, max_degree + 1):
            res = resolve(current, t + 1)
            classes = ext_basis(current, current, t, res=res)
            by_degree = {}
            for c in classes:
                by_degree.setdefault(c.internal_degree, []).append(c)
            candidates = list(classes)
            for w, group in sorted(by_degree.items()):
                if len(group) < 2:
                    continue
                # one combination of the classes' values, split at the generators of F_t
                ends = np.cumsum([len(v) for v in group[0].values])[:-1]
                basis = np.stack([np.concatenate(cls.values) for cls in group], axis=1)
                for vals in seeded_combinations(basis, m.ring.char, rng,
                                                REDUCTION_COMBINATIONS // max(1, len(by_degree))):
                    candidates.append(ExtClass(t, w, np.split(vals, ends), current, current, res))
            for cand in candidates:
                try:
                    push = pushout_extension(cand)
                except SyzkitError:
                    continue
                if not push.ses_ok or push.module.is_zero():
                    continue
                est_k, _ = complexity_of_module(push.module, window)
                if est_k.value < current_est.value:
                    found = (push, est_k, t)
                    break
            if found:
                break
        if not found:
            return None
        push, est_k, t = found
        # only the accepted step's depth is computed, against the current one
        if current_depth is None:
            current_depth = depth(current).depth
        k_depth = depth(push.module).depth
        preserved = k_depth == current_depth
        steps.append(
            ReductionStep(push.module, push.eta, t, est_k, push.ses_ok, preserved)
        )
        current, current_est, current_depth = push.module, est_k, k_depth
    if current_est.value != 0:
        return None
    return ReductionSequence(m, est0, steps, min(s.degree for s in steps))


# -- depth formula ----------------------------------------------------------


@dataclass
class DepthFormulaReport:
    depth_m: int
    depth_n: int
    depth_ring: int
    q: int
    q_rigor: str
    depth_tor_q: int
    lhs: int
    rhs: int
    verdict: bool
    annotations: list
    window: int
    degree_bound: int

    def lines(self):
        out = [
            ("depth_m", self.depth_m),
            ("depth_n", self.depth_n),
            ("depth_ring", self.depth_ring),
            ("q", self.q),
            ("rigor", self.q_rigor),
            ("depth_tor_q", self.depth_tor_q),
            ("lhs", self.lhs),
            ("rhs", self.rhs),
            ("verdict", str(self.verdict).lower()),
            ("windows", f"homological={self.window},internal={self.degree_bound}"),
        ]
        return out


def check_depth_formula(m, n, window=8, search_reduction=False, seed=0):
    """Verify depth M + depth N = depth A + depth Tor_q(M, N) - q.

    depth A stands in for dim A: the Cohen-Macaulay hypothesis is assumed
    and recorded, never checked.  When q >= 1 the check refuses to run on a
    non-rigorous q.  A window below 1 computes no Tor_i with i >= 1, so it
    cannot tell q = 0 from q >= 1 and is refused.  M is resolved once, to
    window + 1, and one homology of F (x) N serves both Tor and the module
    structure of Tor_q.
    """
    if window < 1:
        raise WindowError(f"the depth formula needs a window >= 1, got {window}")
    if not m.ring.same_ring(n.ring):
        raise SyzkitError("the depth formula needs modules over a common ring")
    if m.is_zero() or n.is_zero():
        raise SyzkitError("depth formula needs nonzero modules")
    res, homology = _homology(m, n, None, window + 1, f"Tor up to degree {window}", False)
    profile = _tor_profile(res, homology, n, window)
    q = profile.q
    if q >= 1 and not profile.rigorous:
        raise SyzkitError(
            "largest nonvanishing Tor index is not rigorous within the window; "
            "raise the window"
        )
    dm = depth(m).depth
    dn = depth(n).depth
    da = depth_of_ring(m.ring).depth
    tq = _tor_module(res, homology, n, q) if q else tensor_presentation(m, n)
    dtq = depth(tq).depth
    lhs = dm + dn
    rhs = da + dtq - q
    annotations = ["dim A = depth A assumed (Cohen-Macaulay hypothesis, not verified)"]
    if q == 0:
        annotations.append("Tor-independent pair (q = 0, rigor: %s)" % profile.q_rigor)
        annotations.append("plain depth formula case")
    else:
        annotations.append(f"q = {q} >= 1 with depth Tor_q = {dtq}")
        if dtq <= 1:
            annotations.append("depth Tor_q <= 1 case")
        if profile.q_rigor == "finite-pd":
            annotations.append(
                "M has finite projective dimension, so its upper reducing "
                "degree is infinite (>= 2 in particular)"
            )
    if dm == da:
        annotations.append("M is maximal Cohen-Macaulay (depth M = depth A)")
    if search_reduction:
        witness = reduction_search(m, seed=seed, window=max(window, 8))
        if witness is None:
            annotations.append("no complexity-reduction witness found within budget")
        else:
            annotations.append(
                "complexity-reduction witness found: chain "
                + " > ".join(str(v) for v in witness.chain_values())
                + f", min class degree {witness.reddeg_lower_bound}"
            )
    return DepthFormulaReport(
        dm, dn, da, q, profile.q_rigor, dtq, lhs, rhs, lhs == rhs,
        annotations, window, m.ring.degree_bound,
    )
