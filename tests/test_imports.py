"""Package hygiene: no fracwave module imports another module's private
names, and only ``_fft`` reaches an FFT library.

A name with a leading underscore belongs to its module, which may change
or remove it. ``from .stepper import _name`` ties the importer to such an
internal; a private module imported whole (``from . import _fft``) is the
package's own shared helper and stays allowed.

Every transform runs through ``_fft``, so its worker count and its counter
see all of them: the four-FFT budget of a Toeplitz solve is read there.
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


FFT_MODULES = ("numpy.fft", "scipy.fft")


def fft_library_uses(source: str) -> list[str]:
    """The imports of numpy.fft or scipy.fft in ``source``, and its reads of
    ``np.fft``, ``numpy.fft`` or ``scipy.fft`` as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name}" for alias in node.names
                      if alias.name.startswith(FFT_MODULES)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [f"from {node.module} import {alias.name}"
                      for alias in node.names
                      if node.module.startswith(FFT_MODULES)
                      or f"{node.module}.{alias.name}" in FFT_MODULES]
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy", "scipy")):
            found.append(f"{node.value.id}.fft")
    return found


def test_only_the_fft_module_reaches_an_fft_library():
    found = {path.name: fft_library_uses(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "_fft.py"}
    assert {name: uses for name, uses in found.items() if uses} == {}
    assert fft_library_uses((PACKAGE / "_fft.py").read_text()) == [
        "import scipy.fft"]


def test_fft_guard_sees_imports_and_reads():
    source = ("import numpy as np\n"
              "import scipy.fft as sfft\n"
              "from numpy import fft\n"
              "from scipy.fft import rfft, irfft\n"
              "def f(x):\n"
              "    return np.fft.fft(x) + numpy.fft.ifft(x) + scipy.fft.dct(x)\n")
    assert sorted(fft_library_uses(source)) == sorted([
        "import scipy.fft", "from numpy import fft",
        "from scipy.fft import rfft", "from scipy.fft import irfft",
        "np.fft", "numpy.fft", "scipy.fft"])
    assert fft_library_uses("from . import _fft\n"
                            "import numpy as np\n"
                            "y = _fft.cfft(np.ones(4))\n"
                            "z = ops.fft\n") == []
