"""Command-line surface: resolve, depth, tor, depth-formula, reduce,
construct, period.

Machine mode (--machine) emits line-oriented `key = value` records under a
schema header; output is byte-identical across runs with the same inputs,
flags, and seed.  Exit codes: 0 success (verdict false is still success),
1 any other SyzkitError (printed as `error: ...`), 2 parse error, 3 degree
bound exceeded, 4 window exceeded.
"""

import argparse
import functools
import math
import os
import sys

from .construction import corollary_module, detect_complex_periodicity, run_construction
from .errors import DegreeBoundError, ParseError, SyzkitError, WindowError
from .homological import check_depth_formula, reduction_search, tor
from .io import (
    read_complex_file,
    read_module_file,
    write_module_file,
    write_ring_file,
)
from .resolutions import complexity_of_module, depth

SCHEMA = "syzkit.report.v1"


class Report:
    def __init__(self, command, machine):
        self.machine = machine
        self.pairs = [("schema", SCHEMA), ("command", command)]
        self.pretty_lines = []

    def add(self, key, value):
        if isinstance(value, bool):
            value = str(value).lower()
        elif isinstance(value, float) and value == math.inf:
            value = "inf"
        self.pairs.append((key, value))

    def say(self, line):
        self.pretty_lines.append(line)

    def emit(self):
        if self.machine:
            for k, v in self.pairs:
                print(f"{k} = {v}")
        else:
            for line in self.pretty_lines:
                print(line)


def _context(report, ring, args):
    report.add("char", ring.char)
    report.add("degree_bound", ring.degree_bound)
    report.add("window", args.window)
    report.add("seed", args.seed)


def _fmt_value(v):
    return "inf" if v == math.inf else str(int(v))


def cmd_resolve(args):
    module = read_module_file(args.module, args.degree_bound)
    report = Report("resolve", args.machine)
    _context(report, module.ring, args)
    est, res = complexity_of_module(module, window=args.window)
    betti = res.betti()
    report.add("betti", ",".join(str(b) for b in betti))
    report.add("complexity", _fmt_value(est.value))
    report.add("complexity_status", est.status)
    report.add("minimal", res.is_minimal())
    report.say(f"module {args.module} over F_{module.ring.char}, degree bound "
               f"{module.ring.degree_bound}")
    report.say("betti numbers (0.." + str(res.window) + "): "
               + ", ".join(str(b) for b in betti))
    report.say(f"complexity: {_fmt_value(est.value)} [{est.status}]")
    report.emit()
    return 0


def cmd_depth(args):
    module = read_module_file(args.module, args.degree_bound)
    report = Report("depth", args.machine)
    _context(report, module.ring, args)
    d = depth(module)
    report.add("depth", d.depth)
    report.add("pd_ambient", d.pd_ambient)
    report.add("nvars", d.nvars)
    report.say(f"depth {d.depth} (projective dimension {d.pd_ambient} over "
               f"{d.nvars}-variable polynomial ring)")
    report.emit()
    return 0


def _read_module_pair(args):
    cache = {}
    m = read_module_file(args.module, args.degree_bound, cache)
    n = read_module_file(args.other, args.degree_bound, cache)
    if not m.ring.same_ring(n.ring):
        raise ParseError("modules live over different rings")
    return m, n


def cmd_tor(args):
    m, n = _read_module_pair(args)
    report = Report("tor", args.machine)
    _context(report, m.ring, args)
    profile = tor(m, n, args.window)
    for i in range(args.window + 1):
        dims = ",".join(f"{d}:{v}" for d, v in sorted(profile.dims[i].items()))
        report.add(f"tor_{i}", dims if dims else "0")
    report.add("q", profile.q)
    report.add("q_rigor", profile.q_rigor)
    report.add("internal_bound", profile.internal_bound)
    exact = ("every internal degree exact" if profile.internal_bound == math.inf
             else f"internal degrees exact up to {profile.internal_bound}")
    report.say(f"Tor profile up to homological degree {args.window} ({exact})")
    for i in range(args.window + 1):
        total = profile.total(i)
        if total:
            graded = ", ".join(f"deg {d}: {v}" for d, v in sorted(profile.dims[i].items()))
            report.say(f"  Tor_{i}: dim {total} ({graded})")
    report.say(f"largest nonvanishing index q = {profile.q} [{profile.q_rigor}]")
    report.emit()
    return 0


def cmd_depth_formula(args):
    m, n = _read_module_pair(args)
    report = Report("depth-formula", args.machine)
    _context(report, m.ring, args)
    out = check_depth_formula(
        m, n, window=args.window, search_reduction=args.search_reduction,
        seed=args.seed,
    )
    for key, value in out.lines():
        report.add(key, value)
    for i, a in enumerate(out.annotations):
        report.add(f"note_{i}", a)
    report.say(
        f"depth M = {out.depth_m}, depth N = {out.depth_n}, "
        f"depth A = {out.depth_ring} (stands in for dim A)"
    )
    report.say(f"q = {out.q} [{out.q_rigor}], depth Tor_q = {out.depth_tor_q}")
    report.say(f"lhs = {out.lhs}, rhs = {out.rhs}: verdict "
               + ("TRUE" if out.verdict else "FALSE"))
    for a in out.annotations:
        report.say(f"  note: {a}")
    report.emit()
    return 0


def cmd_reduce(args):
    module = read_module_file(args.module, args.degree_bound)
    report = Report("reduce", args.machine)
    _context(report, module.ring, args)
    seq = reduction_search(
        module, max_degree=args.max_degree, window=args.window, seed=args.seed
    )
    if seq is None:
        report.add("witness", "none")
        report.say("no reduction witness found within the search budget "
                   "(this does not prove irreducibility)")
        report.emit()
        return 0
    report.add("witness", "found")
    report.add("steps", len(seq.steps))
    report.add("complexity_chain", ",".join(_fmt_value(v) for v in seq.chain_values()))
    report.add("class_degrees", ",".join(str(s.degree) for s in seq.steps))
    report.add("reddeg_lower_bound", _fmt_value(seq.reddeg_lower_bound))
    report.add("all_ses_exact", all(s.ses_ok for s in seq.steps))
    report.say("reduction witness with complexity chain "
               + " > ".join(_fmt_value(v) for v in seq.chain_values()))
    for i, s in enumerate(seq.steps):
        report.say(f"  step {i + 1}: class degree {s.degree}, "
                   f"new module with {len(s.module.gen_degrees)} generators, "
                   f"sequence exact: {s.ses_ok}")
    report.say(f"upper reducing degree is at least {_fmt_value(seq.reddeg_lower_bound)}")
    report.emit()
    return 0


def cmd_construct(args):
    cache = {}
    factors = []
    etas = []
    for path in args.complexes:
        cx, eta = read_complex_file(path, args.degree_bound, cache)
        if eta is None:
            cert = detect_complex_periodicity(cx, seed=args.seed)
            if cert is None:
                raise SyzkitError(f"{path}: no periodicity map given or detected")
            eta = cert.witness
        factors.append(cx)
        etas.append(eta)
    report = Report("construct", args.machine)
    result = run_construction(factors, etas, seed=args.seed)
    _context(report, result.product.ring, args)
    report.add("factors", len(factors))
    report.add("shifts", ",".join(str(s) for s in result.shifts()))
    report.add("product_ranks", ",".join(str(r) for r in result.product.ranks()))
    for i, bt in enumerate(result.cone_bettis):
        name = "product_betti" if i == 0 else f"cone_{i}_betti"
        report.add(name, ",".join(str(b) for b in bt))
    report.add(
        "complexity_chain",
        ",".join(_fmt_value(e.value) for e in result.complexity_chain),
    )
    report.add("chain_strictly_decreasing", result.chain_strictly_decreasing)
    for r in result.ses_reports:
        report.add(f"ses_{r.index}_exact", r.ok)
    cert = result.last_e_certificate
    report.add("last_truncation_period", cert.period if cert else "none")
    report.add("last_truncation_complexity", _fmt_value(result.last_e_complexity.value))
    report.add("witness_configuration", result.witness_configuration)
    report.add("infinite_ci_witness", result.infinite_ci_witness)
    report.add("witness_reason", result.witness_reason)
    cor = corollary_module(result, window=args.window)
    report.add("module_generators", ",".join(str(g) for g in cor.module.gen_degrees))
    report.add("module_betti_matches_product", cor.betti_matches_product)
    report.add("transport_complete", cor.transport_complete)
    if cor.transport_note:
        report.add("transport_note", cor.transport_note)
    report.add("reddeg_lower_bound", _fmt_value(cor.reddeg_lower_bound))
    report.say(f"product of {len(factors)} periodic factors over "
               f"F_{result.product.ring.char}; ranks "
               + ",".join(str(r) for r in result.product.ranks()))
    report.say("complexity chain: "
               + " > ".join(_fmt_value(e.value) for e in result.complexity_chain)
               + (" (strictly decreasing)" if result.chain_strictly_decreasing else ""))
    report.say("linking sequences exact: "
               + ", ".join(str(r.ok) for r in result.ses_reports))
    report.say(f"last truncated product: period {cert.period if cert else 'none'}, "
               f"complexity {_fmt_value(result.last_e_complexity.value)}")
    report.say("infinite quasi-deformation-dimension witness: "
               + ("YES" if result.infinite_ci_witness else "no")
               + f" ({result.witness_reason})")
    if args.emit:
        ring_path = args.emit + ".ring"
        write_ring_file(ring_path, result.product.ring)
        write_module_file(args.emit, cor.module, os.path.basename(ring_path))
        report.add("emitted", args.emit)
        report.say(f"cokernel module written to {args.emit}")
    report.emit()
    return 0


def cmd_period(args):
    cx, _ = read_complex_file(args.complex, args.degree_bound)
    report = Report("period", args.machine)
    _context(report, cx.ring, args)
    cert = detect_complex_periodicity(cx, window=args.window, seed=args.seed)
    if cert is None:
        report.add("period", "none")
        report.say("no periodicity within the window")
        report.emit()
        return 0
    report.add("period", cert.period)
    report.add("twist", cert.twist)
    report.add("witness_window", cert.window)
    report.add("witness_surjective", cert.witness.is_surjective())
    report.add("witness_iso_from_period", cert.witness.iso_range_ok(cert.period))
    for d in sorted(cert.below):
        kind, rigorous = cert.below[d]
        report.add(f"below_{d}", f"{kind} (rigorous={str(rigorous).lower()})")
    report.say(f"periodic of period {cert.period} (internal twist {cert.twist}) "
               f"within window {cert.window}")
    for d in sorted(cert.below):
        kind, rigorous = cert.below[d]
        report.say(f"  shift {d} infeasible: {kind}"
                   + ("" if rigorous else " [search only, not a certificate]"))
    report.emit()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="syzkit",
        description="graded homological algebra over quotients of polynomial rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--window", type=int, default=10,
                       help="homological window (default 10)")
        p.add_argument("--degree-bound", type=int, default=None,
                       help="override the ring file's degree bound")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized searches (default 0)")
        p.add_argument("--machine", action="store_true",
                       help="stable key = value output for diffing")

    p = sub.add_parser("resolve", help="Betti numbers and complexity")
    p.add_argument("module")
    common(p)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("depth", help="depth via the ambient polynomial ring")
    p.add_argument("module")
    common(p)
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("tor", help="graded Tor profile of two modules")
    p.add_argument("module")
    p.add_argument("other")
    common(p)
    p.set_defaults(func=cmd_tor)

    p = sub.add_parser("depth-formula", help="verify the depth formula")
    p.add_argument("module")
    p.add_argument("other")
    p.add_argument("--search-reduction", action="store_true",
                   help="also search for a complexity-reduction witness")
    common(p)
    p.set_defaults(func=cmd_depth_formula)

    p = sub.add_parser("reduce", help="search for complexity-reduction witnesses")
    p.add_argument("module")
    p.add_argument("--max-degree", type=int, default=3,
                   help="largest cohomological degree to try (default 3)")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("construct", help="tensor periodic factors and iterate cones")
    p.add_argument("complexes", nargs="+")
    p.add_argument("--emit", default=None, help="write the cokernel module here")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("period", help="certify periodicity of a complex")
    p.add_argument("complex")
    common(p)
    p.set_defaults(func=cmd_period)
    return parser


_parser = functools.cache(build_parser)  # one argparse tree per process


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.seed < 0:  # numpy's generators take only a nonnegative seed
        parser.error(f"argument --seed: must be a nonnegative integer, got {args.seed}")
    if args.degree_bound is not None and args.degree_bound < 1:
        parser.error(f"argument --degree-bound: must be >= 1, got {args.degree_bound}")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DegreeBoundError as exc:
        print(f"degree bound exceeded: {exc}", file=sys.stderr)
        return 3
    except WindowError as exc:
        print(f"window too small: {exc}", file=sys.stderr)
        return 4
    except SyzkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
