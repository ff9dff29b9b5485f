"""AST views of fusekd's own source, shared by the tests that state rules about it."""

import ast
from pathlib import Path

import fusekd

SRC = Path(fusekd.__file__).parent


def source_trees() -> list[tuple[str, ast.Module]]:
    """``(file name, parsed module)`` for every module of fusekd, in name order."""
    return [(p.name, ast.parse(p.read_text())) for p in sorted(SRC.glob("*.py"))]


def calls_outside(owner: tuple[str, str], names: set[str]) -> list[str]:
    """Every call of a function or method named in ``names`` (``f(...)`` or
    ``x.f(...)``) anywhere in fusekd except inside the function
    ``owner = (file name, function name)``, as ``"file:line name"``."""
    found = []
    for file, tree in source_trees():
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (file, node.name) == owner:
                allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in names:
                    found.append(f"{file}:{node.lineno} {name}")
    return found


def _is_shape_slice(node: ast.expr) -> bool:
    """``x.shape[i:j]`` or ``np.shape(x)[i:j]``."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)):
        return False
    v = node.value
    return getattr(v, "attr", None) == "shape" or (
        isinstance(v, ast.Call) and getattr(v.func, "attr", getattr(v.func, "id", None)) == "shape"
    )


def _starts_with_3(node: ast.expr) -> bool:
    return isinstance(node, ast.Tuple) and bool(node.elts) and getattr(node.elts[0], "value", None) == 3


def image_shape_checks() -> list[tuple[str, str | None]]:
    """``(file name, innermost enclosing function or None)`` of every comparison
    in fusekd between a shape slice and a tuple whose first item is the literal
    3: the form of a check that images are ``(B, 3, S, S)``."""
    found = []
    for file, tree in source_trees():
        owner = {}  # ast.walk is breadth-first, so an inner function overwrites its outer one
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update((id(n), func.name) for n in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(_is_shape_slice, operands)) and any(map(_starts_with_3, operands)):
                    found.append((file, owner.get(id(node))))
    return found


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement binds: a function, a class or assigned names."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unused_public_names() -> set[str]:
    """``"module.name"`` of every public module-level function, class and
    constant that no other code in fusekd reads.

    A name counts as read when its own module loads it outside its
    definition, another module imports it (``from .m import name``), or
    another module reads it as an attribute of the module (``m.name`` after
    ``from . import m``, aliases included).
    """
    trees = {file[: -len(".py")]: tree for file, tree in source_trees()}
    read = set()
    for module, tree in trees.items():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    else:
                        read.add(f"{node.module}.{a.name}")
        for stmt in tree.body:
            own = set(_defined(stmt))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
                    read.add(f"{module}.{node.id}")
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
                    read.add(f"{aliases[node.value.id]}.{node.attr}")
    public = {
        f"{module}.{name}"
        for module, tree in trees.items()
        for stmt in tree.body
        for name in _defined(stmt)
        if not name.startswith("_")
    }
    return public - read
