"""Layout rules of the package, read from its source with ast.

The power-basis format has one home, cyclotomic, and the independent oracle
shares nothing with the character path but that format: it reads the group,
the adjacency matrices and a claimed spectrum.  A Group keeps no n x n
multiplication table, and no module reads one as an attribute named mul.
Every private helper, and every function of the private module _modp, is
named somewhere besides its own definition.  spectra and cli decide every
Galois question from the unit columns, so neither names the class merge.
In spectra only the guarded pass calls the block kernel.
"""

import ast
from pathlib import Path

import cayley_spectra

SRC = Path(cayley_spectra.__file__).parent
POWER_BASIS_HELPERS = {"_power_basis", "_basis_norm", "_galois_matrix", "_complex_parts"}
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


def _names(tree):
    """Every name the source uses: bare names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)


def test_spectra_and_cli_do_not_name_the_class_merge():
    """Membership and closure are ANDs of unit columns (spectra._moved and the pi_t table), never a merge of Galois classes."""
    trees = _trees()
    for module in ("spectra", "cli"):
        named = set(_names(trees[module])) & {"galois_conjugacy_classes", "is_union_of_galois_classes"}
        assert not named, (module, named)


def test_only_the_guarded_pass_sums_blocks():
    """spectra names _block_sums only in _vanishing, which checks every block's offset, so no pass sums blocks unchecked.

    A name counts whether it is called or passed on, so the kernel cannot
    reach another pass as an argument either.
    """
    users = {
        getattr(top, "name", None)
        for top in _trees()["spectra"].body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "_block_sums"
    }
    assert users == {"_vanishing"}, users


def test_no_module_reads_a_multiplication_table():
    readers = {
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "mul"
    }
    assert not readers, readers


def _declared_all(tree):
    """The names a module lists in __all__, or None when it has no __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return None


def test_package_exports_are_listed_in_their_modules_all():
    trees = _trees()
    unlisted = {}
    for module, names in _package_imports(trees.pop("__init__")):
        declared = _declared_all(trees[module])
        if declared is not None:
            unlisted[module] = sorted(names - declared)
    assert unlisted and not any(unlisted.values()), unlisted


def _is_helper(module, node):
    """A module-level _name function or class, or any function of the private module _modp."""
    if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return False
    private = node.name.startswith("_") and not node.name.startswith("__")
    return private or (module == "_modp" and isinstance(node, ast.FunctionDef))


def test_every_private_helper_is_referenced_outside_its_definition():
    """A helper that no other statement of the package names is dead code.

    Its own module names it bare; another imports it from that module or
    reads it as that module's attribute (_modp.exact_matmul).  So a local
    variable of the same name elsewhere does not count.
    """
    definitions = []  # (module, index of the top-level statement, name)
    sites = {}  # (module, name) -> the (module, index) of every top-level statement that names it
    for module, tree in _trees().items():
        for index, node in enumerate(tree.body):
            if _is_helper(module, node):
                definitions.append((module, index, node.name))
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name):
                    refs = [(module, inner.id)]
                elif isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name):
                    refs = [(inner.value.id, inner.attr)]
                elif isinstance(inner, ast.ImportFrom) and inner.level:
                    refs = [(inner.module, alias.name) for alias in inner.names]
                else:
                    continue
                for ref in refs:
                    sites.setdefault(ref, set()).add((module, index))
    dead = [
        f"{module}.{name}" for module, index, name in definitions if not sites.get((module, name), set()) - {(module, index)}
    ]
    assert definitions and not dead, dead
