"""Independent correctness checks for benchmark command outputs.

None of these use syzkit: they compare the `--machine` records with closed
forms from the theory of the generated inputs, or byte for byte with
goldens captured at the parent commit.

* residue field of a complete intersection of c quadrics in n variables:
  Tate's Poincare series (1 + t)^n / (1 - t^2)^c;
* residue field of k[x_1..x_n]/m^2: 1 / (1 - n t);
* every generated resolution: the Hilbert-series identity
  H_M(d) = sum_i (-1)^i sum_{g in F_i} H_R(d - g) for d <= window, with the
  closed forms of H_R and H_M; the generated modules are quotients by
  linear forms of Koszul rings, so F_i is generated in degree i;
* depth: the Auslander-Buchsbaum count over the ambient ring;
* construct: the shifts, the tensor product ranks C(j + k - 1, k - 1), the
  complexity chain k, ..., 0, exact linking sequences, the certified period
  n of the last truncation and the witness verdict n > 2;
* fixed key values for tor, depth-formula, reduce and period, derived by
  hand for the generated (coordinate-changed) inputs.
"""

import math

from workloads import series_coeffs


def parse_machine(stdout):
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def tate_betti(nvars, quadrics, window):
    num = [math.comb(nvars, i) for i in range(nvars + 1)]    # (1 + t)^n
    return series_coeffs(num, [2] * quadrics, window + 1)


def hilbert_identity_errors(betti, h_ring, h_module):
    errors = []
    for d in range(len(betti)):
        lhs = sum((-1) ** i * betti[i] * h_ring[d - i] for i in range(d + 1))
        if lhs != h_module[d]:
            errors.append(f"Hilbert identity fails at degree {d}: {lhs} != H_M = {h_module[d]}")
    return errors


def _expect(rec, expected):
    return [f"{k} = {rec.get(k)!r}, expected {v!r}" for k, v in expected.items()
            if rec.get(k) != v]


def _resolve(rec, check):
    window = check["window"]
    try:
        betti = [int(b) for b in rec["betti"].split(",")]
    except (KeyError, ValueError):
        return ["no betti record"]
    errors = []
    if len(betti) != window + 1:
        errors.append(f"{len(betti)} Betti numbers for window {window}")
        return errors
    if "tate" in check:
        want = tate_betti(check["tate"]["nvars"], check["tate"]["quadrics"], window)
        if betti != want:
            errors.append(f"betti {betti} != Tate series {want}")
    if "golod_nvars" in check:
        want = [check["golod_nvars"] ** i for i in range(window + 1)]
        if betti != want:
            errors.append(f"betti {betti} != 1/(1 - nt) series {want}")
    errors += hilbert_identity_errors(betti, check["h_ring"], check["h_module"])
    errors += _expect(rec, {"minimal": "true"})
    return errors


def _depth(rec, check):
    n, dep = check["nvars"], check["depth"]
    return _expect(rec, {"depth": str(dep), "nvars": str(n), "pd_ambient": str(n - dep)})


def _construct(rec, check):
    shifts, window = check["shifts"], check["window"]
    k, n = len(shifts), shifts[-1]
    ranks = [math.comb(j + k - 1, k - 1) for j in range(window + 1)]
    errors = _expect(rec, {
        "factors": str(k),
        "shifts": ",".join(map(str, shifts)),
        "product_ranks": ",".join(map(str, ranks)),
        "complexity_chain": ",".join(str(c) for c in range(k, -1, -1)),
        "chain_strictly_decreasing": "true",
        "last_truncation_period": str(n),
        "infinite_ci_witness": str(n > 2).lower(),
    })
    ses = [key for key in rec if key.startswith("ses_") and key.endswith("_exact")]
    if len(ses) != k or any(rec[key] != "true" for key in ses):
        errors.append(f"linking sequences: {[(key, rec[key]) for key in ses]}")
    return errors


CHECKS = {"resolve": _resolve, "depth": _depth, "construct": _construct}


def check_command(cmd, result, goldens):
    """Return a list of problems; empty means the command passed."""
    if result["rc"] != 0:
        last = (result["stderr"].strip().splitlines() or ["(no stderr)"])[-1]
        return [f"exit {result['rc']}: {last}"]
    errors = []
    golden = goldens.get(cmd["golden_key"]) if cmd.get("golden") else None
    if golden is not None and result["stdout"] != golden:
        errors.append("stdout differs from the golden captured at the parent commit")
    check = cmd["check"]
    rec = parse_machine(result["stdout"])
    if rec.get("schema") != "syzkit.report.v1" or rec.get("command") != cmd["argv"][0]:
        errors.append("missing report header")
    if check["kind"] in CHECKS:
        errors += CHECKS[check["kind"]](rec, check)
    errors += _expect(rec, check.get("expect", {}))
    return errors
