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
    string constants that spell an identifier (the bench tracer names the
    functions it wraps by string)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def unreferenced_definitions() -> set[str]:
    """``module.name`` of each module-level function and class of the package
    that no code under ``src/`` or ``bench/`` names, outside its own
    definition and the package's ``__init__`` exports."""
    defined = set()
    users: dict[str, set] = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        in_package = path.parent == PACKAGE
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if in_package and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = f"{path.stem}.{stmt.name}"
                defined.add(owner)
            for name in _referenced_names(stmt):
                users.setdefault(name, set()).add(owner or str(path))
    return {qual for qual in defined
            if not users.get(qual.partition(".")[2], set()) - {qual}}


def test_every_package_definition_has_a_caller():
    assert unreferenced_definitions() - NO_CALLER_YET == set()


def test_the_no_caller_allowlist_is_still_needed():
    # A listed name that gains a caller comes off the list.
    assert NO_CALLER_YET <= unreferenced_definitions()
