"""Every name in ``lgfeas.__all__`` has a caller outside the tests: a name,
an attribute or an import alias in the package's own modules, the scripts,
the benchmark, or a Python block of the README.  A mention in a docstring
or a comment does not count."""

import ast
import re
from pathlib import Path

import lgfeas

ROOT = Path(__file__).resolve().parent.parent

# public names with no caller yet, and why they stay
NO_CALLER_YET = {
    "marginalize": "ROADMAP item 13 names it as the check of a certificate against each run",
}


def _sources():
    paths = [path for path in sorted((ROOT / "src" / "lgfeas").glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    sources = [path.read_text() for path in paths]
    readme = (ROOT / "README.md").read_text()
    return sources + re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)


def _referenced(source):
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    referenced = set().union(*map(_referenced, _sources()))
    uncalled = sorted(set(lgfeas.__all__) - referenced)
    assert uncalled == sorted(NO_CALLER_YET)

