"""Seeded input generators for the three benchmark workloads.

Every workload is a fixed list of `syzkit` CLI commands built from the
workload seed.  The list is a number of *cycles*; each cycle has the same
command kinds and sizes, and every generated command gets its own freshly
written ring file, so nothing computed for one command can help the next.
The seed only changes coefficients, coordinates, variable names and
order, and command order, never the sizes or the primes, so run time is
a property of the sizes and not of the seed.

A command is a dict:

    id       stable name, "<cycle>.<slot>-<kind>"
    argv     arguments for `syzkit.cli.main`, paths relative to the checkout
    check    what the independent oracle in oracles.py expects
    golden   True if the stdout is compared byte for byte with a golden
             captured at the parent commit (README examples always; the
             generated commands only for DEFAULT_SEED)
    golden_key     the command's key in goldens/<workload>.json
    known_defect   (optional) the error text of a known defect this command
                   may hit; such a failure is counted, listed and reported,
                   but does not mark the run's outputs as wrong
"""

import math
import os
import random

DEFAULT_SEED = 0
BIG_PRIMES = (32003, 2147483647)
# linalg.matmul accumulates k (p - 1)^2 in int64, which overflows for p near
# 2^31; resolve then stops with this internal error.  Such failures are
# counted and listed, never dropped.
OVERFLOW_PRIME = 2147483647
OVERFLOW_DEFECT = "resolution differentials do not compose to zero"
SMALL_PRIMES = (2, 3, 5, 7, 11)      # int8 storage in linalg
MID_PRIMES = (13, 17, 19, 23, 29, 31)  # int64 storage in linalg

# Measured seconds per cycle on the reference machine (2 cores); the run
# executes round(seconds / CYCLE_SECONDS) cycles, at least one.
CYCLE_SECONDS = {"syzygy-large": 24.0, "construct": 12.5, "cli-mix": 3.5}

README_EXAMPLES = [
    "resolve fixtures/ci2_k.module --window 10",
    "depth-formula fixtures/hyp_ax.module fixtures/hyp_axy.module --window 8",
    "reduce fixtures/ci2_k.module --max-degree 2 --window 9",
    "construct fixtures/period1_x.complex fixtures/period1_y.complex --emit {work}/readme_out.module",
    "construct fixtures/period1_x.complex fixtures/period4.complex",
    "period fixtures/period2.complex --window 10",
]


# -- polynomials as {exponent tuple: coefficient} ----------------------------


def _term(c, e, names):
    mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
    if not mono:
        return str(c)
    return mono if c == 1 else f"{c}*{mono}"


def fmt_poly(poly, names):
    terms = [_term(c, e, names) for e, c in sorted(poly.items(), reverse=True) if c]
    return " + ".join(terms) if terms else "0"


def _unit(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def _mul(f, g, p):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def _linear(row):
    return {_unit(len(row), i): c for i, c in enumerate(row) if c}


def _substitute(poly, g, p):
    """poly(g x): each variable x_i becomes the linear form sum_j g[i][j] x_j."""
    n = len(g)
    out = {}
    for e, c in poly.items():
        term = {(0,) * n: c}
        for i, k in enumerate(e):
            for _ in range(k):
                term = _mul(term, _linear(g[i]), p)
        for e2, c2 in term.items():
            out[e2] = (out.get(e2, 0) + c2) % p
    return {e: c for e, c in out.items() if c}


def _rank_mod_p(rows, p):
    a = [list(r) for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][c] % p), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        for r in range(len(a)):
            if r != rank and a[r][c] % p:
                f = a[r][c] * inv
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def random_gl(rng, n, p):
    while True:
        g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _rank_mod_p(g, p) == n:
            return g


def dense_quadric(rng, n, p):
    """All n(n+1)/2 quadratic monomials with nonzero coefficients."""
    out = {}
    for i in range(n):
        for j in range(i, n):
            e = tuple((k == i) + (k == j) for k in range(n))
            out[e] = rng.randrange(1, p)
    return out


# -- Hilbert series used by the generators and the oracles -------------------


def series_coeffs(num, den_factors, n_terms):
    """Coefficients of num(t) / prod(1 - t^a) as an exact integer list.

    `num` is a coefficient list; each a in `den_factors` divides once by 1 - t^a.
    """
    out = list(num) + [0] * max(0, n_terms - len(num))
    out = out[:n_terms]
    for a in den_factors:
        for i in range(a, n_terms):
            out[i] += out[i - a]
    return out


def ci_hilbert(nvars, c, n_terms):
    """H of k[nvars]/(c quadrics) for c generic quadrics (CI when c <= nvars)."""
    c = min(c, nvars) if nvars else 0
    num = [math.comb(c, i) for i in range(c + 1)]          # (1 + t)^c
    return series_coeffs(num, [1] * (nvars - c), n_terms)


# -- file writers -------------------------------------------------------------


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_ring(path, p, names, relations, bound):
    rels = ", ".join(f'"{fmt_poly(r, names)}"' for r in relations)
    _write(path, f"ring {{ char = {p}; vars = [{', '.join(names)}]; "
                 f"relations = [{rels}]; degree_bound = {bound} }}\n")


def write_cyclic_module(path, ring_file, names, forms):
    rels = ", ".join(f'["{fmt_poly(f, names)}"]' for f in forms)
    _write(path, f'module {{ ring = "{os.path.basename(ring_file)}"; '
                 f"generators = [0]; relations = [{rels}] }}\n")


def write_periodic_complex(path, names, order, window, bound):
    """Rank-one complex over F_2[names]/(all quadrics), differential d_j =
    names[order[(j - 1) % n]], with its shift-n periodicity map."""
    n = len(names)
    ring_file = path + ".ring"
    rels = []
    for i in range(n):
        for j in range(i, n):
            rels.append(f'"{names[i]}^2"' if i == j else f'"{names[i]}*{names[j]}"')
    _write(ring_file, f"ring {{ char = 2; vars = [{', '.join(names)}]; "
                      f"relations = [{', '.join(rels)}]; "
                      f"degree_bound = {bound} }}\n")
    mods = ", ".join(f"[{j}]" for j in range(window + 1))
    diffs = ", ".join(f'd{j} = [["{names[order[(j - 1) % n]]}"]]'
                      for j in range(1, window + 1))
    comps = ", ".join("[]" if j < n else '[["1"]]' for j in range(window + 1))
    _write(path, "complex {\n"
                 f'  ring = "{os.path.basename(ring_file)}";\n'
                 f"  modules = [{mods}];\n"
                 f"  differentials = [ {diffs} ];\n"
                 f"  maps = {{ eta = {{ shift = {n}; twist = -{n}; "
                 f"components = [ {comps} ] }} }}\n}}\n")


# -- workloads ----------------------------------------------------------------


def _rng(workload, seed, cycle, slot):
    return random.Random(f"{workload}:{seed}:{cycle}:{slot}")


def _syzygy_large(work, seed, cycle):
    """Per cycle, for each p in BIG_PRIMES and c in (1, 2): the residue field
    and R/(x), R/(x, y), R/(x, y, z) of fresh dense random rings
    F_p[x, y, z, w]/(c quadrics) at degree bound 10, resolved to window 6."""
    names = ["x", "y", "z", "w"]
    cmds = []
    slot = 0
    for p in BIG_PRIMES:
        for c in (1, 2):
            for r in (0, 1, 2, 3):
                rng = _rng("syzygy-large", seed, cycle, slot)
                tag = f"{cycle}.{slot}-" + (f"k-c{c}-p{p}" if r == 0 else f"cyc{r}-c{c}-p{p}")
                base = os.path.join(work, tag)
                rels = [dense_quadric(rng, 4, p) for _ in range(c)]
                write_ring(base + ".ring", p, names, rels, 10)
                forms = [_linear(_unit(4, i)) for i in range(4 if r == 0 else r)]
                write_cyclic_module(base + ".module", base + ".ring", names, forms)
                # H_M of R/(first r variables): the c quadrics restricted to
                # the remaining 4 - r variables (generic, nonzero w^2 term).
                h_m = [1] + [0] * 6 if r == 0 else ci_hilbert(4 - r, c, 7)
                check = {"kind": "resolve", "window": 6, "h_ring": ci_hilbert(4, c, 7),
                         "h_module": h_m}
                if r == 0:
                    check["tate"] = {"nvars": 4, "quadrics": c}
                cmd = {"id": tag, "argv": ["resolve", base + ".module", "--window", "6"],
                       "check": check}
                if p == OVERFLOW_PRIME:
                    cmd["known_defect"] = OVERFLOW_DEFECT
                cmds.append(cmd)
                slot += 1
    return cmds


def _construct(work, seed, cycle):
    """Per cycle: shifts (1, n) for n = 2..5 with window-13 factors, and
    (1, 1, n) for n = 2, 3 with window-7, 8 and 9 factors, at characteristic 2."""
    specs = [((1, n), 13) for n in (2, 3, 4, 5)]
    specs += [((1, 1, n), w) for n in (2, 3) for w in (7, 8, 9)]
    cmds = []
    for slot, (shifts, window) in enumerate(specs):
        rng = _rng("construct", seed, cycle, slot)
        tag = f"{cycle}.{slot}-construct-{'-'.join(map(str, shifts))}-w{window}"
        letters = rng.sample("abcdefghjkmnpqrstuvw", len(shifts))
        files = []
        for k, (n, letter) in enumerate(zip(shifts, letters)):
            names = [letter] if n == 1 else [f"{letter}{i + 1}" for i in range(n)]
            order = list(range(n))
            rng.shuffle(order)
            path = os.path.join(work, f"{tag}.f{k}.complex")
            write_periodic_complex(path, names, order, window, window + 3)
            files.append(path)
        cmds.append({"id": tag, "argv": ["construct"] + files,
                     "check": {"kind": "construct", "shifts": list(shifts), "window": window}})
    rng = _rng("construct", seed, cycle, "order")
    rng.shuffle(cmds)
    return cmds


def _prime(primes, cycle, slot):
    """The slot's prime: fixed per cycle and slot, the same for every seed,
    since the cost of the F_p kernels depends on p."""
    return primes[(cycle + slot) % len(primes)]


def _small_ring(rng, work, tag, nvars, c, bound, p, golod=False):
    """F_p[nvars]/(x_1^2..x_c^2) (or the square of the maximal ideal) in
    random coordinates; returns (ring file, names, g, p)."""
    names = ["x", "y", "z"][:nvars]
    g = random_gl(rng, nvars, p)
    if golod:
        rels = [_substitute({tuple(a + b for a, b in zip(_unit(nvars, i), _unit(nvars, j))): 1}, g, p)
                for i in range(nvars) for j in range(i, nvars)]
    else:
        rels = [_substitute({tuple(2 * v for v in _unit(nvars, i)): 1}, g, p) for i in range(c)]
    path = os.path.join(work, tag + ".ring")
    write_ring(path, p, names, rels, bound)
    return path, names, g, p


def _coord_forms(g, p, idx):
    """The linear forms x_i(g x) for i in idx."""
    return [_substitute({_unit(len(g), i): 1}, g, p) for i in idx]


def _cli_mix(work, seed, cycle):
    """Per cycle: the README examples, then small seeded commands over fresh
    rings in 2-3 variables, p <= 31, in seeded order (table in README.md)."""
    cmds = []
    for slot, line in enumerate(README_EXAMPLES):
        kind = line.split()[0]
        cmds.append({"id": f"{cycle}.{slot}-readme-{kind}",
                     "argv": line.format(work=work).split(),
                     "check": {"kind": "golden-only"}, "golden": True,
                     "golden_key": f"readme-{slot}"})
    slot = len(cmds)

    def ring(kind, nvars, c, bound, primes, golod=False):
        nonlocal slot
        rng = _rng("cli-mix", seed, cycle, slot)
        tag = f"{cycle}.{slot}-{kind}"
        p = _prime(primes, cycle, slot)
        slot += 1
        return tag, rng, _small_ring(rng, work, tag, nvars, c, bound, p, golod)

    def module(tag, suffix, ring_file, names, forms):
        path = os.path.join(work, f"{tag}{suffix}.module")
        write_cyclic_module(path, ring_file, names, forms)
        return path

    # residue fields of complete intersections: Tate's (1+t)^n / (1-t^2)^c
    for nvars, c, bound, window, primes in ((2, 2, 12, 10, SMALL_PRIMES),
                                            (3, 2, 12, 8, MID_PRIMES),
                                            (3, 2, 14, 10, SMALL_PRIMES),
                                            (3, 3, 10, 8, SMALL_PRIMES)):
        tag, _, (rf, names, g, p) = ring(f"resolve-k-n{nvars}c{c}", nvars, c, bound, primes)
        m = module(tag, "", rf, names, _coord_forms(g, p, range(nvars)))
        cmds.append({"id": tag, "argv": ["resolve", m, "--window", str(window)],
                     "check": {"kind": "resolve", "window": window,
                               "tate": {"nvars": nvars, "quadrics": c},
                               "h_ring": ci_hilbert(nvars, c, window + 1),
                               "h_module": [1] + [0] * window}})
    # residue field of k[x, y]/m^2 (Golod): 1 / (1 - 2t)
    tag, _, (rf, names, g, p) = ring("resolve-k-golod", 2, 0, 12, MID_PRIMES, golod=True)
    m = module(tag, "", rf, names, _coord_forms(g, p, range(2)))
    cmds.append({"id": tag, "argv": ["resolve", m, "--window", "9"],
                 "check": {"kind": "resolve", "window": 9, "golod_nvars": 2,
                           "h_ring": [1, 2] + [0] * 8, "h_module": [1] + [0] * 9}})
    # cyclic modules R/(x_n) and R/(x_{n-1}, x_n) over a hypersurface in 3 variables
    for r, primes in ((1, SMALL_PRIMES), (2, MID_PRIMES)):
        tag, _, (rf, names, g, p) = ring(f"resolve-cyc{r}", 3, 1, 14, primes)
        m = module(tag, "", rf, names, _coord_forms(g, p, range(3 - r, 3)))
        cmds.append({"id": tag, "argv": ["resolve", m, "--window", "8"],
                     "check": {"kind": "resolve", "window": 8, "h_ring": ci_hilbert(3, 1, 9),
                               "h_module": ci_hilbert(3 - r, 1, 9)}})
    # depth of R/(x_n) over a hypersurface in 3 variables: 3 - 1 - 1
    for primes in (SMALL_PRIMES, MID_PRIMES):
        tag, _, (rf, names, g, p) = ring("depth", 3, 1, 12, primes)
        m = module(tag, "", rf, names, _coord_forms(g, p, [2]))
        cmds.append({"id": tag, "argv": ["depth", m],
                     "check": {"kind": "depth", "depth": 1, "nvars": 3}})
    # the README depth-formula / tor pair R/(x), R/(x + y) over k[x, y(, z)]/(x y)
    # in random coordinates: q = 0, depth M = n - 1, depth N = depth R - 1 = n - 2
    for kind, nvars, primes in (
            ("tor", 2, SMALL_PRIMES),
            ("tor", 3, MID_PRIMES),
            ("depth-formula", 2, MID_PRIMES),
            ("depth-formula", 3, SMALL_PRIMES)):
        rng = _rng("cli-mix", seed, cycle, slot)
        tag = f"{cycle}.{slot}-{kind}-n{nvars}"
        p = _prime(primes, cycle, slot)
        slot += 1
        g = random_gl(rng, nvars, p)
        names = ["x", "y", "z"][:nvars]
        rf = os.path.join(work, tag + ".ring")
        write_ring(rf, p, names, [_substitute({(1, 1, 0)[:nvars]: 1}, g, p)], 14)
        x, y = _coord_forms(g, p, [0, 1])
        xy = {e: (x.get(e, 0) + y.get(e, 0)) % p for e in set(x) | set(y)}
        m1 = module(tag, ".m", rf, names, [x])
        m2 = module(tag, ".n", rf, names, [{e: c for e, c in xy.items() if c}])
        expect = {"q": "0"}
        if kind == "depth-formula":
            expect.update(depth_m=str(nvars - 1), depth_n=str(nvars - 2),
                          depth_ring=str(nvars - 1), verdict="true")
        cmds.append({"id": tag, "argv": [kind, m1, m2, "--window", "8"],
                     "check": {"kind": kind, "expect": expect}})
    # reduction witness for the residue field of a 2-variable complete intersection
    tag, _, (rf, names, g, p) = ring("reduce", 2, 2, 12, SMALL_PRIMES)
    m = module(tag, "", rf, names, _coord_forms(g, p, range(2)))
    cmds.append({"id": tag, "argv": ["reduce", m, "--max-degree", "2", "--window", "9"],
                 "check": {"kind": "reduce", "expect": {"witness": "found",
                                                        "complexity_chain": "2,1,0",
                                                        "all_ses_exact": "true"}}})
    # periodicity certificate of the period-2 complex over k[x, y]/(x y)
    rng = _rng("cli-mix", seed, cycle, slot)
    tag = f"{cycle}.{slot}-period"
    p = _prime(MID_PRIMES, cycle, slot)
    slot += 1
    g = random_gl(rng, 2, p)
    names = ["x", "y"]
    rf = os.path.join(work, tag + ".ring")
    write_ring(rf, p, names, [_substitute({(1, 1): 1}, g, p)], 14)
    x, y = (fmt_poly(f, names) for f in _coord_forms(g, p, [0, 1]))
    cx = os.path.join(work, tag + ".complex")
    _write(cx, "complex {\n"
               f'  ring = "{os.path.basename(rf)}";\n'
               f"  modules = [{', '.join(f'[{j}]' for j in range(13))}];\n"
               "  differentials = [ "
               + ", ".join(f'd{j} = [["{x if j % 2 else y}"]]' for j in range(1, 13))
               + " ];\n}\n")
    cmds.append({"id": tag, "argv": ["period", cx, "--window", "10"],
                 "check": {"kind": "period", "expect": {"period": "2", "twist": "-2",
                                                        "witness_surjective": "true"}}})
    generated = cmds[len(README_EXAMPLES):]
    _rng("cli-mix", seed, cycle, "order").shuffle(generated)
    return cmds[:len(README_EXAMPLES)] + generated


GENERATORS = {"syzygy-large": _syzygy_large, "construct": _construct, "cli-mix": _cli_mix}


def n_cycles(workload, seconds):
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def build(workload, seed, seconds, work):
    """Write the input files under `work` and return the command list."""
    os.makedirs(work, exist_ok=True)
    cmds = []
    for cycle in range(n_cycles(workload, seconds)):
        cmds.extend(GENERATORS[workload](work, seed, cycle))
    for c in cmds:
        c.setdefault("golden", seed == DEFAULT_SEED)
        c.setdefault("golden_key", c["id"])
    return cmds
