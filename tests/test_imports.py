"""Package hygiene: no fracwave module imports another module's private
names.

A name with a leading underscore belongs to its module, which may change
or remove it. ``from .stepper import _name`` ties the importer to such an
internal; a private module imported whole (``from . import _fft``) is the
package's own shared helper and stays allowed.
"""

import ast
from pathlib import Path

import fracwave

PACKAGE = Path(fracwave.__file__).resolve().parent


def private_imports(source: str) -> list[str]:
    """The ``from <module> import _name`` statements of ``source`` that
    reach into a module of the package, one entry per private name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 0 and node.module.split(".")[0] != "fracwave":
            continue
        found += [f"from {'.' * node.level}{node.module} import {alias.name}"
                  for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name():
    found = {path.name: private_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_guard_sees_private_names_and_spares_module_imports():
    source = ("from .stepper import (SchemeState,\n"
              "                      _nonadi_m)\n"
              "def f():\n"
              "    from fracwave.harness import _l2h_diff\n")
    assert private_imports(source) == ["from .stepper import _nonadi_m",
                                       "from fracwave.harness import _l2h_diff"]
    assert private_imports("from . import _fft\n"
                           "from .coeffs import riesz_coeffs_1d\n"
                           "from numpy import _core\n") == []
