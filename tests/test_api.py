"""The public surface is what the CLI chain uses, plus a named list of oracles."""

import ast
import os

import rotwave

SRC = os.path.dirname(rotwave.__file__)
MODULES = ("bifurcation", "cli", "errors", "laminar", "numerics", "reconstruct", "spectral", "vorticity")

# Public names no command calls, kept because tests use them as independent
# checks of what the commands compute.
ORACLES = {
    "shooting_mu",  # Pruefer shooting: mu by a route that shares no code with the elements
    "assemble",  # the finite element pencil, for dense eigensolver comparisons
    "rayleigh_quotient",  # the quotient of any nodal P1 function
    "scale_to_unit_wavenumber",  # the wavelength scaling behind the invariance oracle
}


def _trees():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name[:-3], ast.parse(fh.read())


def _uses(node, name):
    """Loads of ``name`` under node, as a bare name or an attribute."""
    return sum(
        (isinstance(n, ast.Name) and n.id == name) or (isinstance(n, ast.Attribute) and n.attr == name)
        for n in ast.walk(node)
    )


def test_every_public_name_has_a_caller():
    trees = dict(_trees())
    unused = []
    for module in MODULES:
        for node in trees[module].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            total = sum(_uses(tree, node.name) for tree in trees.values())
            if total == _uses(node, node.name) and node.name not in ORACLES:
                unused.append(f"{module}.{node.name}")
    assert unused == []
