"""Layout rules of the package, read from its source with ast.

The power-basis format has one home, cyclotomic, and the independent oracle
shares nothing with the character path but that format: it reads the group,
the adjacency matrices and a claimed spectrum.
"""

import ast
from pathlib import Path

import cayley_spectra

SRC = Path(cayley_spectra.__file__).parent
POWER_BASIS_HELPERS = {"_power_basis", "_galois_matrix", "_complex_parts"}
# what oracle may import from the package: module -> names (None for any)
ORACLE_IMPORTS = {
    "_modp": None,
    "cyclotomic": None,
    "group_core": None,
    "spectra": {"EigenValue", "Spectrum", "SpectrumEntry", "_read_spectrum"},
}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _package_imports(tree):
    """(module, imported names) per import from the package; names is None for a whole module.

    An absolute import of the package keeps its dotted name, which no rule allows.
    """
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.append((node.module, {alias.name for alias in node.names}))
            else:  # from . import x
                out += [(alias.name, None) for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            out += [(name, None) for name in names if name.split(".")[0] == "cayley_spectra"]
    return out


def test_power_basis_helpers_are_defined_only_in_cyclotomic():
    defined = {
        module: {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)} & POWER_BASIS_HELPERS
        for module, tree in _trees().items()
    }
    assert defined.pop("cyclotomic") == POWER_BASIS_HELPERS
    assert not any(defined.values()), defined


def test_oracle_imports_only_the_number_format():
    imports = _package_imports(_trees()["oracle"])
    assert imports
    for module, names in imports:
        assert module in ORACLE_IMPORTS, module
        allowed = ORACLE_IMPORTS[module]
        assert allowed is None or (names is not None and names <= allowed), (module, names)


def test_spectra_imports_nothing_private_from_characters():
    for module, names in _package_imports(_trees()["spectra"]):
        if module == "characters":
            assert names is not None and not any(name.startswith("_") for name in names), names
