"""The verifiers check the spectral packages they are handed.

A spatial verifier takes the spectral :class:`ChernPackage` it checks, and
an evolution verifier reads the packages its trajectory keeps, so the only
package ``verify.py`` builds itself is an fd8 oracle package.  A verifier
that builds its own spectral package again shows up here as a
``ChernPackage`` call whose scheme is not ``ORACLE``.
"""

import ast
import pathlib

import iiblab

VERIFY = pathlib.Path(iiblab.__file__).parent / "verify.py"


def _package_calls(tree: ast.Module) -> list[ast.Call]:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "ChernPackage"
    ]


def _scheme(call: ast.Call) -> ast.expr | None:
    if len(call.args) > 2:
        return call.args[2]
    return next((kw.value for kw in call.keywords if kw.arg == "scheme"), None)


def test_verify_builds_only_oracle_packages():
    tree = ast.parse(VERIFY.read_text())
    calls = _package_calls(tree)
    stray = [
        call.lineno for call in calls
        if not (isinstance(_scheme(call), ast.Name) and _scheme(call).id == "ORACLE")
    ]
    assert not stray, f"verify.py builds a non-oracle ChernPackage at lines {stray}"
    # the guard sees the oracle packages, so it is not vacuous
    assert calls


def test_chern_package_is_reached_only_by_its_name():
    """No import renames the class, and no attribute path reaches it, so the
    walk above sees every construction."""
    tree = ast.parse(VERIFY.read_text())
    renamed = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and any(a.name == "ChernPackage" and a.asname for a in node.names)
    ]
    dotted = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "ChernPackage"
    ]
    assert not renamed + dotted, f"ChernPackage reached another way: {renamed + dotted}"
