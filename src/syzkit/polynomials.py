"""Monomials, homogeneous polynomials, and the text syntax for both.

A monomial is an exponent tuple over a fixed variable list.  A polynomial
is a dict mapping exponent tuples to nonzero coefficients mod p.  Text
form is a sum of terms ``c*x^a*y^b`` where ``*`` and ``^`` are optional
for exponent 1, e.g. ``x^2 + 2*x*y``.
"""

import re

from .errors import HomogeneityError, ParseError


def monomial_degree(exps):
    return sum(exps)


def poly_degree(f):
    """Degree of a homogeneous polynomial; None for the zero polynomial."""
    degs = {monomial_degree(m) for m in f}
    if not degs:
        return None
    if len(degs) > 1:
        raise HomogeneityError(f"polynomial is not homogeneous (degrees {sorted(degs)})")
    return degs.pop()


def poly_is_homogeneous(f):
    return len({monomial_degree(m) for m in f}) <= 1


_TERM_RE = re.compile(r"^\s*(\d+)?\s*((?:\*?\s*[A-Za-z_]\w*\s*(?:\^\s*\d+)?\s*)*)$")
_VARPOW_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\^\s*(\d+))?")


def parse_polynomial(text, var_names, p):
    """Parse a polynomial string into exponent-dict form, reduced mod p."""
    var_index = {v: i for i, v in enumerate(var_names)}
    n = len(var_names)
    s = text.strip()
    if not s or s == "0":
        return {}
    # split into signed terms
    terms = []
    sign = 1
    buf = ""
    for ch in s:
        if ch in "+-" and buf.strip():
            terms.append((sign, buf))
            sign = 1 if ch == "+" else -1
            buf = ""
        elif ch == "-":
            sign = -sign
        elif ch != "+":
            buf += ch
    if buf.strip():
        terms.append((sign, buf))
    if not terms:
        raise ParseError(f"cannot parse polynomial {text!r}")

    out = {}
    for sgn, term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"cannot parse term {term!r} in {text!r}")
        coeff_s, rest = m.group(1), m.group(2) or ""
        coeff = int(coeff_s) if coeff_s else 1
        exps = [0] * n
        for vm in _VARPOW_RE.finditer(rest):
            name, power = vm.group(1), vm.group(2)
            if name not in var_index:
                raise ParseError(f"unknown variable {name!r} in {text!r}")
            exps[var_index[name]] += int(power) if power else 1
        leftover = _VARPOW_RE.sub("", rest).replace("*", "").strip()
        if leftover:
            raise ParseError(f"cannot parse term {term!r} in {text!r}")
        key = tuple(exps)
        v = (out.get(key, 0) + sgn * coeff) % p
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def format_monomial(exps, var_names):
    parts = []
    for e, v in zip(exps, var_names):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


def format_polynomial(f, var_names):
    if not f:
        return "0"
    terms = []
    for m in sorted(f, key=lambda e: (monomial_degree(e), tuple(-x for x in e))):
        c = f[m]
        mono = format_monomial(m, var_names)
        if mono == "1":
            terms.append(str(c))
        elif c == 1:
            terms.append(mono)
        else:
            terms.append(f"{c}*{mono}")
    return " + ".join(terms)
