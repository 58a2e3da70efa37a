"""Every name in ``lgfeas.__all__`` has a caller outside the tests: a name,
an attribute or an import alias in the package's own modules, the scripts,
the benchmark, or a Python block of the README.  A mention in a docstring
or a comment does not count.  Every name that a package module imports is
read in that module."""

import ast
import re
from pathlib import Path

import lgfeas

ROOT = Path(__file__).resolve().parent.parent

# public names with no caller yet, and why they stay
NO_CALLER_YET = {
    "marginalize": "ROADMAP item 13 names it as the check of a certificate against each run",
}


def _modules():
    """The package's modules, ``__init__`` aside: it imports to re-export."""
    return [path for path in sorted((ROOT / "src" / "lgfeas").glob("*.py")) if path.name != "__init__.py"]


def _sources():
    paths = _modules() + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    sources = [path.read_text() for path in paths]
    readme = (ROOT / "README.md").read_text()
    return sources + re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)


def _referenced(source, aliases=True):
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and aliases:
            names.update(node.name.split("."))
    return names


def _imported(source):
    """The names that a module's imports bind, ``from __future__`` aside."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names}


def test_every_public_name_has_a_caller_outside_the_tests():
    referenced = set().union(*map(_referenced, _sources()))
    uncalled = sorted(set(lgfeas.__all__) - referenced)
    assert uncalled == sorted(NO_CALLER_YET)


def test_every_import_of_a_package_module_is_read_in_it():
    unused = {}
    for path in _modules():
        source = path.read_text()
        if names := sorted(_imported(source) - _referenced(source, aliases=False)):
            unused[path.name] = names
    assert unused == {}
