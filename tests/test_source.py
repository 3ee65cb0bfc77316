"""Static checks on the package source."""

import ast
from pathlib import Path

import syzkit

# linalg.zeros(rows, cols, p) and linalg.identity(n, p) take a `p` they never
# read; dropping it touches about 90 call sites, a change of its own
# (ROADMAP item 6).
ALLOWED_UNREAD = {("linalg", "zeros", "p"), ("linalg", "identity", "p")}


def unread_parameters(path):
    """(module, function, parameter) for every parameter its body never reads."""
    out = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
        params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {
            node.id
            for stmt in body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        out |= {(path.stem, getattr(fn, "name", "<lambda>"), p) for p in params if p not in read}
    return out


def test_every_parameter_is_read():
    found = set()
    for path in sorted(Path(syzkit.__file__).parent.glob("*.py")):
        found |= unread_parameters(path)
    assert found == ALLOWED_UNREAD


def test_no_assert_statements():
    # `python -O` strips asserts, so checks in the package raise typed errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(syzkit.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
