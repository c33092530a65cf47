"""Every public module-level function of gradlab is reached by the program.

A function `module.name` counts as reached when some file under src/ or
scripts/ uses it in code: as `module.name` through an imported module, by
a `from .module import name` import, or by its bare name inside its own
module (a call or a reference outside its definition).  A use resolves
to the module it names, so `np.trace` or a method called `trace` does not
reach `fiber.trace`.  Docstrings and comments do not count, and neither
do tests: a helper that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gradlab"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

# oracles still to be wired into a suite (ROADMAP item 3); a name leaves
# this set when a suite reaches it
AWAITING_A_SUITE = {
    "gradients.d2_insertion_oracle",
    "gradients.ahlfors_ratio",
}
# library entry points documented for users rather than called by the CLI:
# the README's config section names the format_config round trip
LIBRARY_API = {"config.format_config"}


def _public_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}"


def _source_module(node):
    """The gradlab module a from-import reads from, or None."""
    if node.level:
        # relative imports only occur inside the package
        return node.module if node.module else None
    if node.module and node.module.startswith("gradlab."):
        return node.module.split(".", 1)[1]
    return None


def _uses(path, here):
    """Qualified `module.name` uses in one file; `here` is the file's own
    module name, or None outside the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}  # local name -> gradlab module
    imported = {}  # local name -> qualified function name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            src = _source_module(node)
            package = node.level or node.module == "gradlab"
            for alias in node.names:
                local = alias.asname or alias.name
                if src is None and package and alias.name in MODULES:
                    aliases[local] = alias.name
                elif src in MODULES:
                    imported[local] = f"{src}.{alias.name}"
    uses = set(imported.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
            if module is not None:
                uses.add(f"{module}.{node.attr}")
        elif isinstance(node, ast.Name):
            if node.id in imported:
                uses.add(imported[node.id])
            elif here is not None:
                uses.add(f"{here}.{node.id}")
    return uses


def _references():
    """Every qualified name used in code under src/ and scripts/; a
    function's own definition is not an ast.Name and is not counted."""
    uses = set()
    for path in sorted(PACKAGE.glob("*.py")):
        uses |= _uses(path, path.stem)
    for path in sorted((ROOT / "scripts").rglob("*.py")):
        uses |= _uses(path, None)
    return uses


def test_every_public_function_is_reached():
    uses = _references()
    unreached = [q for q in _public_functions()
                 if q not in uses and q not in AWAITING_A_SUITE | LIBRARY_API]
    assert not unreached, f"public functions no module or script uses: {unreached}"


def test_allowlist_names_only_unreached_functions():
    # an oracle that a suite now reaches leaves the allowlist
    uses = _references()
    stale = [q for q in _public_functions()
             if q in AWAITING_A_SUITE | LIBRARY_API and q in uses]
    assert not stale, f"allowlisted but reached: {stale}"
