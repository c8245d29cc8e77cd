"""The package has one derivative engine.

Every FFT in ``src/iiblab`` is taken in :meth:`TorusGrid.derivatives`, and
every ``np.roll`` in its fd8 stencil helper, ``TorusGrid._stencil``: the
engine is the only place that differentiates or transforms a field.  A
second engine, or a per-axis derivative beside it, shows up here as a
transform or a roll anywhere else.  Likewise the anchor velocity is the
only place that solves a linear system, and the fd8 oracle of
connection-difference the only one that inverts a matrix.
"""

import ast
import pathlib

import iiblab

SRC = pathlib.Path(iiblab.__file__).parent

ALLOWED = {
    "fft.fftn": {"TorusGrid.derivatives"},
    "fft.ifftn": {"TorusGrid.derivatives"},
    "roll": {"TorusGrid._stencil"},
}
HELPERS = {"fftfreq", "rfftfreq", "fftshift", "ifftshift"}  # they transform nothing

# The fd8 oracle raises g with LAPACK's inverse on purpose; no other
# inverse or solve, so in particular no closed-form inverse of W.
SOLVES = {
    "linalg.solve": {"anchor_velocity"},
    "linalg.inv": {"verify_connection_difference"},
    "linalg.pinv": set(),
    "linalg.lstsq": set(),
    "linalg.tensorinv": set(),
    "linalg.tensorsolve": set(),
}


def _sites(tree: ast.Module) -> list[tuple[str, str, int]]:
    """``(name, enclosing class.function, line)`` of every ``*.fft.<name>``,
    ``*.roll`` and ``*.linalg.<name>`` named in ``SOLVES``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute):
                if (
                    isinstance(child.value, ast.Attribute)
                    and child.value.attr == "fft"
                    and child.attr not in HELPERS
                ):
                    found.append((f"fft.{child.attr}", ".".join(scope), child.lineno))
                elif (
                    isinstance(child.value, ast.Attribute)
                    and child.value.attr == "linalg"
                    and f"linalg.{child.attr}" in SOLVES
                ):
                    found.append((f"linalg.{child.attr}", ".".join(scope), child.lineno))
                elif child.attr == "roll":
                    found.append(("roll", ".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return found


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _stray(allowed):
    """Sites outside the scopes ``allowed`` gives their name, and every site
    seen, of the families (``fft``, ``roll``, ``linalg``) ``allowed`` names."""
    families = {fn.split(".")[0] for fn in allowed}
    sites, stray = set(), []
    for name, tree in _trees().items():
        for fn, scope, line in _sites(tree):
            if fn.split(".")[0] not in families:
                continue
            sites.add((fn, scope))
            if scope not in allowed.get(fn, ()):
                stray.append(f"{name}:{line} np.{fn} in {scope or '<module>'}")
    return stray, sites


def test_transforms_only_in_the_engine():
    stray, sites = _stray(ALLOWED)
    assert not stray, f"derivative outside the engine: {stray}"
    # the guard sees the engine itself, so it is not vacuous
    assert {(fn, scope) for fn, scopes in ALLOWED.items() for scope in scopes} <= sites


def test_solves_only_in_the_anchor_velocity():
    stray, sites = _stray(SOLVES)
    assert not stray, f"inverse or solve outside its place: {stray}"
    assert {(fn, scope) for fn, scopes in SOLVES.items() for scope in scopes} <= sites


def test_fft_is_reached_only_through_numpy_fft():
    """No module imports a transform, ``roll`` or a linear solver under a
    name the walk above misses."""
    imports = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if any("fft" in m or m == "roll" or "linalg" in m for m in modules):
                imports.append(f"{name}:{node.lineno}")
    assert not imports, f"direct FFT, roll or linalg imports: {imports}"
