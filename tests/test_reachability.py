"""Every public module-level function of gradlab is reached by the program.

A function `module.name` counts as reached when some file under src/ or
scripts/ uses it in code: as `module.name` through an imported module, by
a `from .module import name` import, or by its bare name inside its own
module (a call or a reference outside its definition).  A use resolves
to the module it names, so `np.trace` or a method called `trace` does not
reach `fiber.trace`.  Docstrings and comments do not count, and neither
do tests: a helper that only tests call belongs in the tests.

A public method or property of a program class counts as reached when
some code under src/ or scripts/ accesses an attribute of that name.  A
name is not resolved to its class, so this is the weaker rule: it catches
a method no program code names at all.

The config module is held to the same rule from outside config.py: every
tolerance is named by a string in the program code that checks against
it, and every config key's attribute is read there, so a key or a
tolerance goes when its last reader does.
"""

import ast
from pathlib import Path

from gradlab.config import TOLERANCES, VALID_KEYS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gradlab"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

# oracles still to be wired into a suite (ROADMAP, "Correctness and
# robustness"); a name leaves this set when a suite reaches it
AWAITING_A_SUITE = set()
# handle factories only perfbench/selftest.py builds, to check that a handle
# made after its tracer is installed captures the wrapped operators; they
# go when that check reads `spectral.d1_star_d1_handle` (ROADMAP item 2)
BENCHMARK_API = {"spectral.d1_handle", "spectral.gradient_handle"}
# methods and properties no program code names, with the reason each stays
UNREACHED_METHODS = {
    # perfbench/tracing.py patches it to count applications, so it stays
    # until the program records its own spans (ROADMAP item 3)
    "spectral.OperatorHandle.apply_vector",
}


def _public_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}"


def _public_methods():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        yield f"{path.stem}.{cls.name}.{node.name}", node.name


def _program_nodes(skip=()):
    """Every AST node of the code under src/ and scripts/, except the files
    named in `skip`."""
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").rglob("*.py"))]:
        if path.name not in skip:
            yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _attribute_names(skip=()):
    """Every attribute name accessed in code under src/ and scripts/."""
    return {node.attr for node in _program_nodes(skip) if isinstance(node, ast.Attribute)}


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
                 if q not in uses and q not in AWAITING_A_SUITE | BENCHMARK_API]
    assert not unreached, f"public functions no module or script uses: {unreached}"


def test_allowlist_names_only_unreached_functions():
    # an oracle that a suite now reaches leaves the allowlist
    uses = _references()
    stale = [q for q in _public_functions()
             if q in AWAITING_A_SUITE | BENCHMARK_API and q in uses]
    assert not stale, f"allowlisted but reached: {stale}"


def test_every_public_method_is_reached():
    names = _attribute_names()
    unreached = [q for q, name in _public_methods()
                 if name not in names and q not in UNREACHED_METHODS]
    assert not unreached, f"public methods no module or script accesses: {unreached}"


def test_method_allowlist_names_only_unreached_methods():
    names = _attribute_names()
    methods = dict(_public_methods())
    stale = [q for q in UNREACHED_METHODS if q not in methods or methods[q] in names]
    assert not stale, f"allowlisted but reached or gone: {stale}"


def test_every_tolerance_is_named_outside_the_config():
    # a tolerance no check names gates nothing
    strings = {node.value for node in _program_nodes(skip=("config.py",))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = sorted(set(TOLERANCES) - strings)
    assert not unread, f"tolerances no program code outside config.py names: {unread}"


def test_every_config_key_is_read_outside_the_config():
    # the report's config section reads every key through getattr, which is
    # not an attribute access here: a key must change what a run does
    names = _attribute_names(skip=("config.py",))
    unread = sorted(key for key, (attr, _) in VALID_KEYS.items() if attr not in names)
    assert not unread, f"config keys no program code outside config.py reads: {unread}"
