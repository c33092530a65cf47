"""Every public module-level function of gradlab is reached by the program.

A function counts as reached when some module under src/ or scripts/ uses
its name in code (a call, an attribute, an import or a reference) outside
its own definition; docstrings and comments do not count, and neither do
tests: a helper that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gradlab"

# oracles still to be wired into a suite (ROADMAP item 2); a name leaves
# this set when a suite reaches it
AWAITING_A_SUITE = {
    "geometry.conformal_christoffel_oracle",
    "geometry.conformal_ricci_oracle",
    "geometry.gauss_curvature_2d_oracle",
    "geometry.curvature_symmetry_residuals",
    "geometry.analytic_laplacian",
    "gradients.d2_insertion_oracle",
    "gradients.ahlfors_ratio",
    "fields.zero_field",
}
# library entry points documented for users rather than called by the CLI:
# the README's config section names the format_config round trip
LIBRARY_API = {"config.format_config"}


def _public_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node


def _references():
    """Count of every name used in code under src/ and scripts/, with each
    function's own definition not counted as a use."""
    counts = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            counts[name] = counts.get(name, 0) + 1
    return counts


def test_every_public_function_is_reached():
    counts = _references()
    unreached = [q for q, node in _public_functions()
                 if not counts.get(node.name) and q not in AWAITING_A_SUITE | LIBRARY_API]
    assert not unreached, f"public functions no module or script uses: {unreached}"


def test_allowlist_names_only_unreached_functions():
    # an oracle that a suite now reaches leaves the allowlist
    counts = _references()
    stale = [q for q, node in _public_functions()
             if q in AWAITING_A_SUITE | LIBRARY_API and counts.get(node.name)]
    assert not stale, f"allowlisted but reached: {stale}"
