"""Checks on the source tree itself rather than on what the pipeline computes."""

import ast
from pathlib import Path

import scanplan

PACKAGE = Path(scanplan.__file__).parent
ROOT = PACKAGE.parents[1]

# Names with no caller yet that a planned change will give one.
NO_CALLER_YET = {"simulate.true_pose_track"}


def _referenced_names(node) -> set[str]:
    """The identifiers ``node`` uses: names, attributes, imported names, and
    string constants (the bench tracer names the functions and methods it
    wraps by string; a dotted string names its last part)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value.rpartition(".")[2])
    return found


def _owned_parts(stmt, module: str):
    """(qualified name or None, AST node) for the parts of a top-level
    statement: a package function or class, and each method of a class
    apart from its dunders, which Python calls by itself."""
    if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [(None, stmt)]
    qual = f"{module}.{stmt.name}"
    if isinstance(stmt, ast.FunctionDef):
        return [(qual, stmt)]
    parts = [(qual, node) for node in stmt.decorator_list + stmt.bases + stmt.keywords]
    for node in stmt.body:
        if (isinstance(node, ast.FunctionDef)
                and not (node.name.startswith("__") and node.name.endswith("__"))):
            parts.append((f"{qual}.{node.name}", node))
        else:
            parts.append((qual, node))
    return parts


def unreferenced_definitions() -> set[str]:
    """``module.name`` of each module-level function and class of the package,
    and ``module.Class.method`` of each method, that no code under ``src/``
    or ``bench/`` names, outside its own definition and the package's
    ``__init__`` exports. A method is named by its own name alone."""
    defined = set()
    users: dict[str, set] = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            parts = (_owned_parts(stmt, path.stem) if path.parent == PACKAGE
                     else [(None, stmt)])
            for owner, node in parts:
                if owner:
                    defined.add(owner)
                for name in _referenced_names(node):
                    users.setdefault(name, set()).add(owner or str(path))
    return {qual for qual in defined
            if not {user for user in users.get(qual.rpartition(".")[2], ())
                    if user != qual and not user.startswith(qual + ".")}}


def test_every_package_definition_has_a_caller():
    assert unreferenced_definitions() - NO_CALLER_YET == set()


def test_the_no_caller_allowlist_is_still_needed():
    # A listed name that gains a caller comes off the list.
    assert NO_CALLER_YET <= unreferenced_definitions()
