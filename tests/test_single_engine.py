"""The package has one spectral-derivative engine.

Every FFT in ``src/iiblab`` is taken in a method allowed to transform:
the engine :meth:`TorusGrid.derivatives`, the per-axis oracle
:meth:`TorusGrid.real_derivative`, and :meth:`TorusGrid.top_band_fraction`,
kept until the diagnostics records decide whether to adopt it.  A second
engine shows up here as a transform anywhere else.
"""

import ast
import pathlib

import iiblab

SRC = pathlib.Path(iiblab.__file__).parent

ALLOWED = {
    "fftn": {"TorusGrid.derivatives", "TorusGrid.top_band_fraction"},
    "ifftn": {"TorusGrid.derivatives"},
    "fft": {"TorusGrid.real_derivative"},
    "ifft": {"TorusGrid.real_derivative"},
}
HELPERS = {"fftfreq", "rfftfreq", "fftshift", "ifftshift"}  # they transform nothing


def _transforms(tree: ast.Module) -> list[tuple[str, str, int]]:
    """``(name, enclosing class.function, line)`` of every ``*.fft.<name>``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Attribute)
                and child.value.attr == "fft"
                and child.attr not in HELPERS
            ):
                found.append((child.attr, ".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return found


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def test_transforms_only_in_the_engine():
    sites, stray = set(), []
    for name, tree in _trees().items():
        for fn, scope, line in _transforms(tree):
            sites.add((fn, scope))
            if scope not in ALLOWED.get(fn, ()):
                stray.append(f"{name}:{line} np.fft.{fn} in {scope or '<module>'}")
    assert not stray, f"FFT outside the derivative engine: {stray}"
    # the guard sees the engine itself, so it is not vacuous
    assert {("fftn", "TorusGrid.derivatives"), ("ifftn", "TorusGrid.derivatives")} <= sites


def test_fft_is_reached_only_through_numpy_fft():
    """No module imports a transform under another name the walk above misses."""
    imports = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if any("fft" in m for m in modules):
                imports.append(f"{name}:{node.lineno}")
    assert not imports, f"direct FFT imports: {imports}"
