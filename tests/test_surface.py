"""The public surface is what the runs use: every name a module lists in
__all__, and every public method or property of a package class, is
referenced by package code outside its own definition, and every public
dataclass field or __slots__ entry is read by package code outside its
class's initializer, and every parameter of a top-level function or
method is read by its body.  The re-exports of slowfast/__init__.py do not count
as uses.  No seed or trajectory id is silent: a master_seed or
trajectory_id parameter has no default."""

import ast
import pathlib

import slowfast

SRC = pathlib.Path(slowfast.__file__).parent

# Per-study entry points of the audit.  The acceptance criteria call them
# one at a time; the CLI runs all four studies together through run_audit.
# eval_g and step_frozen_fast are benchmark tracer targets
# (benchmark/tracer.py TARGETS); they go when the tracer drops them.
# ou_step is the one-step exact OU update that acceptance criterion 1
# certifies and that slow_path's test takes as its reference.
ALLOWED_UNUSED = {"run_moment_audit", "run_holder_stats",
                  "run_theta_stability", "run_khasminskii_study",
                  "eval_g", "step_frozen_fast", "ou_step"}

# Parameters that a protocol signature fixes: the drift oracle is
# evaluated as F-bar(t, x), and a path statistic as stat(traj, model).
ALLOWED_UNREAD_PARAMS = {"analytic_Fbar_linear.t", "_slow_path_stat.model"}

# Seed and id parameters that keep a default.  Acceptance criterion 2
# estimates F-bar at u0 without a trajectory id.
ALLOWED_SEED_DEFAULTS = {"estimate_Fbar.trajectory_id"}

# Fields that only tests read.
ALLOWED_UNREAD_FIELDS: set = set()


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}


def _exports(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and _defines(node, "__all__"):
            return ast.literal_eval(node.value)
    return []


def _defines(node, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _definition_nodes(tree, name: str) -> set:
    """ids of every node inside the top-level definitions of name."""
    return {id(sub) for node in tree.body if _defines(node, name)
            for sub in ast.walk(node)}


def _is_used(name: str, owner: str, modules: dict) -> bool:
    for stem, tree in modules.items():
        skip = _definition_nodes(tree, name) if stem == owner else set()
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name) and node.id == name:
                return True
            if isinstance(node, ast.Attribute) and node.attr == name:
                return True
    return False


def _unused_exports() -> set:
    modules = _modules()
    return {name for stem, tree in modules.items()
            for name in _exports(tree) if not _is_used(name, stem, modules)}


def test_every_exported_name_is_used():
    unused = _unused_exports() - ALLOWED_UNUSED
    assert not unused, (
        f"exported but used by no package code: {sorted(unused)}; "
        "use them in a run or delete them")


def test_allow_list_is_current():
    # An allowed name that a run starts to use leaves the list.
    assert ALLOWED_UNUSED <= _unused_exports()


def _unused_methods() -> set:
    """Class.method for each public method or property of a top-level
    class that no package code names as an attribute outside its own
    body."""
    modules = _modules()
    attrs: dict = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, set()).add(id(node))
    unused = set()
    for tree in modules.values():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (not isinstance(method, ast.FunctionDef)
                        or method.name.startswith("_")):
                    continue
                own = {id(sub) for sub in ast.walk(method)}
                if not attrs.get(method.name, set()) - own:
                    unused.add(f"{cls.name}.{method.name}")
    return unused


def test_every_public_method_is_used():
    unused = _unused_methods()
    assert not unused, (
        f"public methods or properties used by no package code: "
        f"{sorted(unused)}; use them in a run or delete them")


def _is_dataclass(cls) -> bool:
    for decorator in cls.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(func, ast.Name) and func.id == "dataclass":
            return True
    return False


def _fields(cls) -> list:
    """The public dataclass fields and __slots__ entries of a class."""
    names = []
    for node in cls.body:
        if (_is_dataclass(cls) and isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)):
            names.append(node.target.id)
        elif isinstance(node, ast.Assign) and _defines(node, "__slots__"):
            names.extend(ast.literal_eval(node.value))
    return [name for name in names if not name.startswith("_")]


def _unread_fields() -> set:
    """Class.field for each public field or slot of a top-level class that
    no package code loads as an attribute, outside the class's __init__
    and __post_init__.  The scan goes by name: a field that shares its
    name with one that is read elsewhere passes."""
    modules = _modules()
    loads: dict = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                loads.setdefault(node.attr, set()).add(id(node))
    unread = set()
    for tree in modules.values():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            init = {id(sub) for method in cls.body
                    if isinstance(method, ast.FunctionDef)
                    and method.name in ("__init__", "__post_init__")
                    for sub in ast.walk(method)}
            for name in _fields(cls):
                if not loads.get(name, set()) - init:
                    unread.add(f"{cls.name}.{name}")
    return unread


def test_every_field_is_read():
    unread = _unread_fields() - ALLOWED_UNREAD_FIELDS
    assert not unread, (
        f"fields or slots read by no package code: {sorted(unread)}; "
        "read them in a run or delete them")


def test_field_allow_list_is_current():
    assert ALLOWED_UNREAD_FIELDS <= _unread_fields()


def _functions() -> list:
    """(name, node) of each top-level function, named function, and of
    each method of a top-level class, named Class.method."""
    functions = []
    for tree in _modules().values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                functions.extend((f"{node.name}.{method.name}", method)
                                 for method in node.body
                                 if isinstance(method, ast.FunctionDef))
    return functions


def _unread_params() -> set:
    """function.param for each parameter of a top-level function, and
    Class.method.param for each of a method of a top-level class, that no
    statement of its body loads by name (a nested function's load
    counts)."""
    unread = set()
    for name, function in _functions():
        args = function.args
        params = [arg.arg for arg in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if arg is not None]
        loads = {sub.id for statement in function.body
                 for sub in ast.walk(statement)
                 if isinstance(sub, ast.Name)
                 and isinstance(sub.ctx, ast.Load)}
        unread.update(f"{name}.{param}" for param in params
                      if param not in loads)
    return unread


def _defaulted_seeds() -> set:
    """function.param for each master_seed or trajectory_id parameter, of
    the functions _unread_params scans, that has a default."""
    defaulted = set()
    for name, function in _functions():
        args = function.args
        positional = [*args.posonlyargs, *args.args]
        with_default = positional[len(positional) - len(args.defaults):]
        with_default += [arg for arg, default in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                         if default is not None]
        defaulted.update(f"{name}.{arg.arg}" for arg in with_default
                         if arg.arg in ("master_seed", "trajectory_id"))
    return defaulted


def test_every_parameter_is_read():
    unread = _unread_params() - ALLOWED_UNREAD_PARAMS
    assert not unread, (
        f"parameters their function never reads: {sorted(unread)}; "
        "read them or delete them")


def test_parameter_allow_list_is_current():
    assert ALLOWED_UNREAD_PARAMS <= _unread_params()


def test_seed_and_id_have_no_default():
    # A caller that forgets the seed or the id would silently share the
    # streams of seed 0 or of trajectory 0.
    defaulted = _defaulted_seeds() - ALLOWED_SEED_DEFAULTS
    assert not defaulted, (
        f"seed or id parameters with a default: {sorted(defaulted)}; "
        "make every caller pass them")


def test_seed_default_allow_list_is_current():
    assert ALLOWED_SEED_DEFAULTS <= _defaulted_seeds()
