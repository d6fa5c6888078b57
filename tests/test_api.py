"""The public surface is what the CLI chain uses, plus a named list of oracles;
every field it carries has a reader in the package."""

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

# Public fields no code in the package reads, kept because tests check them
# against an independent identity.
ORACLE_FIELDS = {
    # The quotient of the stored M, so the Rayleigh identity holds to round-off.
    "ModeSolution.mu",
    # The wavenumber the scaling oracle maps to; tests check that it is 1.
    "ScaledParameters.kappa",
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


def _is_dataclass(node):
    return any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass")
        for d in node.decorator_list
    )


def _fields(module, node):
    """Public dataclass fields, and the attributes an exception sets on self."""
    if _is_dataclass(node):
        names = [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
    elif module == "errors":
        names = [
            t.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Assign)
            for t in n.targets
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self"
        ]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def test_every_field_has_a_reader():
    trees = dict(_trees())
    read = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = []
    for module in MODULES:
        for node in trees[module].body:
            if isinstance(node, ast.ClassDef):
                for name in _fields(module, node):
                    if name not in read and f"{node.name}.{name}" not in ORACLE_FIELDS:
                        unread.append(f"{module}.{node.name}.{name}")
    assert unread == []
