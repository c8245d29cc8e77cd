"""No function takes a live-slot pattern as an optional argument.

Every kernel that skips exact-zero slots finds the pattern of its inputs
in their values, or reads it from the factor that found it (the
:mod:`iiblab.metrics` docstring).  A pattern handed in beside a field is
trusted without a check against the field, and a call without it takes
another path.  This walk fails on the shape such an argument has taken:
a parameter with a default named ``live``, ``patterns`` or ``*_live``.
"""

import ast
import pathlib

import iiblab

SRC = pathlib.Path(iiblab.__file__).parent


def _optional_patterns(tree: ast.Module) -> list[tuple[str, str, int]]:
    """``(function, parameter, line)`` of every pattern-named parameter with a default."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
        ]
        for a in defaulted:
            if a.arg in ("live", "patterns") or a.arg.endswith("_live"):
                found.append((getattr(node, "name", "<lambda>"), a.arg, node.lineno))
    return found


def test_no_function_takes_an_optional_pattern():
    found = [
        f"{path.relative_to(SRC)}:{line} {name}({arg}=...)"
        for path in sorted(SRC.rglob("*.py"))
        for name, arg, line in _optional_patterns(ast.parse(path.read_text()))
    ]
    assert not found, f"optional live-slot pattern arguments: {found}"


def test_the_walk_finds_every_optional_pattern():
    """Positional, keyword-only and lambda parameters with a default are
    found; a required one, or another name, is not."""
    tree = ast.parse(
        "def f(g, live=None):\n    pass\n"
        "def h(x, *, ginv_live=None, scheme='s', patterns=()):\n    pass\n"
        "def k(live, x_live, scheme=1, *, y_live):\n    pass\n"
        "m = lambda a, a_live=None: a\n"
    )
    assert [(name, arg) for name, arg, _ in _optional_patterns(tree)] == [
        ("f", "live"), ("h", "ginv_live"), ("h", "patterns"), ("<lambda>", "a_live"),
    ]
