"""Text file formats for rings, modules, and complexes.

All three use one brace-block syntax, UTF-8, `#` comments:

    ring { char = 2; vars = [x, y]; relations = ["x^2", "y^2"]; degree_bound = 12 }

    module { ring = "cifiber.ring"; generators = [0]; relations = [["x", "y"]] }

    complex {
      ring = "cifiber.ring";
      modules = [[0], [1], [2]];
      differentials = [ d1 = [["x"]], d2 = [["y"]] ];
      maps = { eta = { shift = 2, twist = -2, components = [[], [], [["1"]]] } };
    }

Lists accept `name = value` entries whose names are ignored (the `d1 =`
style).  A field written as a list must be one, and a key may appear once
in a block.  Every block takes only the keys shown above (`maps` only
`eta`, and `eta` only `shift`, `twist` and `components`): a misspelt key
would otherwise fall back to its default and give a wrong answer, so it is
refused.  Paths are resolved relative to the referencing file.
"""

import os
import re

from . import freemod
from .complexes import ChainMap, FreeComplex
from .errors import DegreeBoundError, ParseError, SyzkitError
from .modules import module_from_strings
from .rings import ring_from_strings

_TOKEN = re.compile(
    r"""\s*(?:(?P<comment>\#[^\n]*)
          |(?P<string>"(?:[^"\\]|\\.)*")
          |(?P<number>-?\d+)
          |(?P<ident>[A-Za-z_][\w.^*+-]*)
          |(?P<punct>[{}\[\]=;,]))""",
    re.VERBOSE,
)


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = m.end()
        kind, token = m.lastgroup, m.group(m.lastgroup)
        if kind == "string":
            out.append((kind, token[1:-1]))
        elif kind == "number":
            out.append((kind, int(token)))
        elif kind != "comment":
            out.append((kind, token))
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tk, tv = self.next()
        if tk != kind or (value is not None and tv != value):
            raise ParseError(f"expected {value or kind}, got {tv!r}")
        return tv

    def value(self):
        tk, tv = self.peek()
        if tk == "punct" and tv == "{":
            return self.block()
        if tk == "punct" and tv == "[":
            return self.list()
        if tk in ("string", "number", "ident"):
            self.next()
            return tv
        raise ParseError(f"unexpected token {tv!r}")

    def list(self):
        self.expect("punct", "[")
        out = []
        while True:
            tk, tv = self.peek()
            if tk == "punct" and tv == "]":
                self.next()
                return out
            # allow `name = value` entries, names discarded
            if tk == "ident" and self.i + 1 < len(self.tokens) and self.tokens[self.i + 1] == ("punct", "="):
                self.next()
                self.next()
            out.append(self.value())
            tk, tv = self.peek()
            if tk == "punct" and tv == ",":
                self.next()
            elif tk == "punct" and tv == "]":
                continue
            elif tk is None:
                raise ParseError("unterminated list")

    def block(self):
        self.expect("punct", "{")
        out = {}
        while True:
            tk, tv = self.peek()
            if tk == "punct" and tv == "}":
                self.next()
                return out
            if tk is None:
                raise ParseError("unterminated block")
            key = self.expect("ident")
            if key in out:
                raise ParseError(f"duplicate key {key!r}")
            self.expect("punct", "=")
            out[key] = self.value()
            tk, tv = self.peek()
            if tk == "punct" and tv in (";", ","):
                self.next()


_KEYS = {
    "ring": ("char", "vars", "relations", "degree_bound"),
    "module": ("ring", "generators", "relations"),
    "complex": ("ring", "modules", "differentials", "maps"),
    "maps": ("eta",),
    "eta": ("shift", "twist", "components"),
}


def _block(value, path, field):
    """value, which must be a block whose keys are all _KEYS[field]."""
    if not isinstance(value, dict):
        raise ParseError(f"{path}: {field} must be a block, got {value!r}")
    for key in value:
        if key not in _KEYS[field]:
            raise ParseError(f"{path}: unknown key {key!r} in {field} block "
                             f"(expected {', '.join(_KEYS[field])})")
    return value


def _list(value, path, field):
    """value, which must be a list: a scalar would be read item by item."""
    if not isinstance(value, list):
        raise ParseError(f"{path}: {field} must be a list, got {value!r}")
    return value


def _rows(value, path, field):
    """value, which must be a list of lists."""
    return [_list(row, path, f"entry {k} of {field}")
            for k, row in enumerate(_list(value, path, field))]


def _document(path, kind):
    """The body of the file at path, which must be one `kind` block."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            p = _Parser(_tokenize(fh.read()))
        found = p.expect("ident")
        body = p.block()
        if p.peek()[0] is not None:
            raise ParseError("trailing content after top-level block")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if found != kind:
        raise ParseError(f"{path}: expected a {kind} block, found {found!r}")
    return _block(body, path, kind)


def _poly_map(ring, rows, src, tgt, twist, path, field):
    """The map src -> tgt whose matrix over tgt x src is rows, a list of
    lists of polynomials; the zero map when src or tgt is zero."""
    rows = _rows(rows, path, field)
    if not src or not tgt:
        return freemod.FreeMap.zero(ring, src, tgt, twist)
    if len(rows) != len(tgt) or any(len(r) != len(src) for r in rows):
        raise ParseError(f"{path}: {field} must be {len(tgt)} x {len(src)}")
    try:
        entries = [[ring.base.parse(str(e)) for e in row] for row in rows]
        return freemod.FreeMap.from_poly_matrix(ring, tgt, src, entries, twist)
    except DegreeBoundError as exc:
        raise DegreeBoundError(exc.needed, exc.bound, f"{path}: {field}") from exc
    except SyzkitError as exc:
        raise ParseError(f"{path}: {field}: {exc}") from exc


def read_ring_file(path, degree_bound_override=None):
    body = _document(path, "ring")
    try:
        char = int(body["char"])
        var_names = [str(v) for v in _list(body.get("vars", []), path, "vars")]
        relations = [str(r) for r in _list(body.get("relations", []), path, "relations")]
        bound = int(body.get("degree_bound", 12))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed ring block ({exc})") from exc
    if degree_bound_override is not None:
        bound = degree_bound_override
    try:
        return ring_from_strings(char, var_names, relations, degree_bound=bound)
    except DegreeBoundError as exc:
        raise DegreeBoundError(exc.needed, exc.bound, f"{path}: relations") from exc
    except SyzkitError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _resolve_ring(body, path, degree_bound_override, ring_cache):
    ref = body.get("ring")
    if not isinstance(ref, str):
        raise ParseError(f"{path}: missing ring reference")
    ring_path = os.path.normpath(os.path.join(os.path.dirname(path), ref))
    key = (ring_path, degree_bound_override)
    if ring_cache is not None and key in ring_cache:
        return ring_cache[key]
    ring = read_ring_file(ring_path, degree_bound_override)
    if ring_cache is not None:
        ring_cache[key] = ring
    return ring


def read_module_file(path, degree_bound_override=None, ring_cache=None):
    body = _document(path, "module")
    ring = _resolve_ring(body, path, degree_bound_override, ring_cache)
    try:
        gens = [int(g) for g in _list(body.get("generators", []), path, "generators")]
        rel_cols = [[str(e) for e in col]
                    for col in _rows(body.get("relations", []), path, "relations")]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed module block ({exc})") from exc
    try:
        return module_from_strings(ring, gens, rel_cols)
    except DegreeBoundError as exc:
        raise DegreeBoundError(exc.needed, exc.bound, f"{path}: relations") from exc
    except SyzkitError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_complex_file(path, degree_bound_override=None, ring_cache=None):
    """Returns (FreeComplex, ChainMap or None)."""
    body = _document(path, "complex")
    ring = _resolve_ring(body, path, degree_bound_override, ring_cache)
    try:
        gens = [tuple(int(g) for g in row)
                for row in _rows(body.get("modules", []), path, "modules")]
        diff_blocks = _list(body.get("differentials", []), path, "differentials")
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed complex block ({exc})") from exc
    if len(diff_blocks) != max(0, len(gens) - 1):
        raise ParseError(
            f"{path}: need {max(0, len(gens) - 1)} differentials for "
            f"{len(gens)} terms, found {len(diff_blocks)}"
        )
    diffs = [None]
    for j in range(1, len(gens)):
        diffs.append(_poly_map(ring, diff_blocks[j - 1], gens[j], gens[j - 1], 0, path,
                               f"differential {j}"))
    cx = FreeComplex(ring, gens, diffs)
    if not cx.verify():
        raise ParseError(f"{path}: differentials do not compose to zero")
    eta = None
    maps = _block(body.get("maps", {}), path, "maps")
    if "eta" in maps:
        eta_block = _block(maps["eta"], path, "eta")
        try:
            shift = int(eta_block["shift"])
            twist = int(eta_block.get("twist", -shift))
            comp_blocks = _list(eta_block.get("components", []), path, "eta components")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: malformed eta map ({exc})") from exc
        comps = []
        for j in range(cx.window + 1):
            src = cx.gen_degrees(j)
            tgt = cx.gen_degrees(j - shift)
            rows = comp_blocks[j] if j < len(comp_blocks) else []
            if rows == []:  # a component left out is zero
                comps.append(freemod.FreeMap.zero(ring, src, tgt, twist))
            else:
                comps.append(_poly_map(ring, rows, src, tgt, twist, path, f"eta component {j}"))
        eta = ChainMap(cx, cx, shift, twist, comps)
        if not eta.verify():
            raise ParseError(f"{path}: eta is not a chain map")
    return cx, eta


def write_ring_file(path, ring):
    rels = ", ".join(f'"{ring.base.format(g)}"' for g in ring.ideal_gens)
    vars_s = ", ".join(ring.vars)
    text = (
        "ring {\n"
        f"  char = {ring.char};\n"
        f"  vars = [{vars_s}];\n"
        f"  relations = [{rels}];\n"
        f"  degree_bound = {ring.degree_bound};\n"
        "}\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def module_relation_strings(module):
    fmt = module.ring.base.format
    return [[fmt(f) for f in col] for col in module.relation_polys()]


def write_module_file(path, module, ring_ref):
    gens = ", ".join(str(g) for g in module.gen_degrees)
    cols = module_relation_strings(module)
    rel_lines = ",\n    ".join(
        "[" + ", ".join(f'"{e}"' for e in col) + "]" for col in cols
    )
    rels = f"[\n    {rel_lines}\n  ]" if cols else "[]"
    text = (
        "module {\n"
        f'  ring = "{ring_ref}";\n'
        f"  generators = [{gens}];\n"
        f"  relations = {rels};\n"
        "}\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
