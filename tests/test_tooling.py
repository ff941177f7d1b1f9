"""Checks on the source tree itself rather than on what the pipeline computes."""

import argparse
import ast
import inspect
import textwrap
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import scanplan
from scanplan.cli import build_parser
from scanplan.pipeline import PipelineConfig

from test_cli import CONFIG_RANGE_ERRORS

PACKAGE = Path(scanplan.__file__).parent
ROOT = PACKAGE.parents[1]

# Names with no caller yet that a planned change will give one.
NO_CALLER_YET = {"simulate.true_pose_track"}

# Defaulted parameters that no call under src/ or bench/ passes, and why each stays.
UNPASSED_DEFAULTS_KEPT = {
    "simulate.simulate_yaw_scan.yaw_span":
        "the ingest tests sweep part of a turn, past open walls and at a standstill",
}

# Dataclass fields that no code under src/ or bench/ reads, and why each stays.
UNREAD_FIELDS_KEPT: dict[str, str] = {}


def _sources():
    """(path, parsed module) of every Python file under ``src/`` and ``bench/``."""
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _referenced_names(node) -> set[str]:
    """The identifiers ``node`` reads: loaded names, attributes, imported
    names, and string constants (the bench tracer names the functions and
    methods it wraps by string; a dotted string names its last part)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if isinstance(sub.ctx, ast.Load):
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
    or ``bench/`` names outside its own definition. A method is named by its
    own name alone."""
    defined = set()
    users: dict[str, set] = {}
    for path, tree in _sources():
        for stmt in tree.body:
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


def _bound_names(stmt) -> list[str]:
    """The names a top-level statement binds by assignment or import, apart
    from dunders and ``from __future__`` imports."""
    if isinstance(stmt, ast.Assign):
        names = [n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    elif isinstance(stmt, ast.Import) or (
            isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"):
        names = [a.asname or a.name.partition(".")[0] for a in stmt.names]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def unread_module_names() -> set[str]:
    """``module.name`` of each name a package module binds at its top level
    by assignment or import that no code under ``src/`` or ``bench/`` reads
    outside the statement that binds it. A name is read by its own name
    alone, in any module."""
    bound = {}
    readers: dict[str, set] = {}
    for path, tree in _sources():
        for k, stmt in enumerate(tree.body):
            if path.parent == PACKAGE:
                for name in _bound_names(stmt):
                    bound[f"{path.stem}.{name}"] = (name, (path, k))
            for name in _referenced_names(stmt):
                readers.setdefault(name, set()).add((path, k))
    return {qual for qual, (name, where) in bound.items()
            if not readers.get(name, set()) - {where}}


def test_every_module_level_name_is_read_somewhere():
    assert unread_module_names() == set()


def _defaulted_parameters():
    """(qualified parameter, name a call uses, position or None) for each
    defaulted parameter of a package function or method; a position leaves
    out ``self`` or ``cls``, and ``__init__`` is called by its class."""
    for path, tree in _sources():
        if path.parent != PACKAGE:
            continue
        functions = [(None, node) for node in tree.body]
        functions += [(cls, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                      for node in cls.body]
        for cls, func in functions:
            if not isinstance(func, ast.FunctionDef):
                continue
            if func.name.startswith("__") and func.name != "__init__":
                continue
            owner = f"{path.stem}.{cls.name + '.' if cls else ''}{func.name}"
            called_as = cls.name if func.name == "__init__" else func.name
            positional = func.args.posonlyargs + func.args.args
            if positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            first_default = len(positional) - len(func.args.defaults)
            for k, arg in enumerate(positional[first_default:], start=first_default):
                yield f"{owner}.{arg.arg}", called_as, k
            for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
                if default is not None:
                    yield f"{owner}.{arg.arg}", called_as, None


def unpassed_defaults() -> set[str]:
    """``module.function.parameter`` of each defaulted parameter that no
    call under ``src/`` or ``bench/`` passes, by keyword or by position.
    Calls are matched by the called name alone, and a call with ``*args``
    or ``**kwargs`` passes every parameter."""
    calls: dict[str, list] = {}
    for _, tree in _sources():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            spread = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {kw.arg for kw in node.keywords}
            calls.setdefault(name, []).append(
                (float("inf") if spread or None in keywords else len(node.args), keywords))
    return {qual for qual, name, position in _defaulted_parameters()
            if not any(qual.rpartition(".")[2] in keywords
                       or position is not None and count > position
                       for count, keywords in calls.get(name, ()))}


def test_every_defaulted_parameter_is_passed_somewhere():
    assert unpassed_defaults() - set(UNPASSED_DEFAULTS_KEPT) == set()


def test_the_unpassed_default_allowlist_is_still_needed():
    assert set(UNPASSED_DEFAULTS_KEPT) <= unpassed_defaults()


def test_the_package_root_binds_only_its_version():
    # Python code imports the stage modules; the root re-exports nothing.
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name.partition(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert "__version__" in bound
    assert {name for name in bound
            if not (name.startswith("__") and name.endswith("__"))} == set()


def _is_dataclass_decorator(node) -> bool:
    func = node.func if isinstance(node, ast.Call) else node
    return getattr(func, "id", getattr(func, "attr", None)) == "dataclass"


def unread_fields() -> set[str]:
    """``module.Class.field`` of each dataclass field of the package that no
    code under ``src/`` or ``bench/`` reads as an attribute. A field is read
    by its own name alone, on any object."""
    fields = {}
    read = set()
    for path, tree in _sources():
        if path.parent == PACKAGE:
            for cls in tree.body:
                if (isinstance(cls, ast.ClassDef)
                        and any(map(_is_dataclass_decorator, cls.decorator_list))):
                    for stmt in cls.body:
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                            fields[f"{path.stem}.{cls.name}.{stmt.target.id}"] = stmt.target.id
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {qual for qual, name in fields.items() if name not in read}


def test_every_dataclass_field_is_read_somewhere():
    unread = unread_fields()
    assert unread - set(UNREAD_FIELDS_KEPT) == set()
    # A listed field that gains a reader comes off the list.
    assert set(UNREAD_FIELDS_KEPT) <= unread


def unread_flags() -> set[str]:
    """``verb --flag`` of each flag of a CLI verb that neither the verb's
    ``cmd_*`` function nor a ``cli.py`` function it passes ``args`` to, at
    any depth, reads as ``args.<dest>``."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(name, seen):
        if name in seen:
            return set()
        seen.add(name)
        found = set()
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                found.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in functions
                  and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
                found |= reads(node.func.id, seen)
        return found

    (verbs,) = [action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)]
    unread = set()
    for verb, parser in verbs.choices.items():
        read = reads(parser.get_default("func").__name__, set())
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction) and action.dest not in read:
                unread.add(f"{verb} {(action.option_strings or [action.dest])[-1]}")
    return unread


def test_every_cli_flag_is_read_by_its_verb():
    # A flag its verb never reads sets nothing, or sets a config key a
    # second way; the config file is the one way in for stage settings.
    assert unread_flags() == set()


def _config_types(cls=PipelineConfig) -> list[type]:
    """``cls`` and every config type its fields hold, at any depth."""
    found = [cls]
    for f in fields(cls):
        if f.default_factory is not MISSING and is_dataclass(f.default_factory):
            found += _config_types(f.default_factory)
    return found


def settable_config_values(cls=PipelineConfig) -> list[str]:
    """The dotted name of each value a config file sets, nested fields included."""
    names = []
    for f in fields(cls):
        if f.default_factory is not MISSING and is_dataclass(f.default_factory):
            names += [f"{f.name}.{name}" for name in settable_config_values(f.default_factory)]
        else:
            names.append(f.name)
    return names


def test_the_config_has_26_settable_values():
    # A knob added or taken away changes this number where a reviewer sees it.
    assert len(settable_config_values()) == 26


def config_range_messages() -> dict[str, str]:
    """Each ``ValueError`` message raised in the ``__post_init__`` of a config
    type reachable from PipelineConfig, with ``Class`` naming where."""
    messages = {}
    for cls in _config_types():
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__post_init__)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "ValueError"):
                (arg,) = node.args
                assert isinstance(arg, ast.Constant), f"{cls.__name__}: not a plain message"
                messages[arg.value] = cls.__name__
    return messages


def test_every_config_range_check_has_a_cli_row():
    # Each range check of the config exits 2 by the CLI; the table of
    # tests/test_cli.py runs one config file per check.
    rows = [message for _, message in CONFIG_RANGE_ERRORS]
    messages = config_range_messages()
    assert len(_config_types()) == 9 and len(messages) == 21
    assert {message: cls for message, cls in messages.items()
            if not any(row.endswith(f": {message}") for row in rows)} == {}


def uncalled_oracles() -> set[str]:
    """Each public function of ``tests/oracles.py`` that no test module
    reads (importing it is not enough), such as an oracle left behind by a
    deleted test."""
    tests = Path(__file__).parent
    oracles = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    public = {stmt.name for stmt in oracles.body
              if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")}
    read = set()
    for path in sorted(tests.glob("test_*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        loaded = {node.id for node in nodes
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= loaded | {node.name for node in nodes
                          if isinstance(node, ast.alias) and node.asname in loaded}
    return public - read


def test_every_oracle_is_called_by_a_test():
    assert uncalled_oracles() == set()
