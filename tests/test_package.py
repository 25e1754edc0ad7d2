import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import spun4d

MODULES = ["spun4d"] + [f"spun4d.{m.name}" for m in pkgutil.iter_modules(spun4d.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _referenced(tree) -> Counter:
    """How often each name occurs in ``tree`` as a Name, an Attribute or an
    import alias."""
    return Counter(node.id if isinstance(node, ast.Name) else
                   node.attr if isinstance(node, ast.Attribute) else node.name
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute, ast.alias)))


def test_every_private_function_is_referenced_in_the_package():
    # a private function or method that nothing but its own body names is
    # dead code, or a fork kept alive by its tests alone
    trees = {path.name: ast.parse(path.read_text()) for path in Path(spun4d.__file__).parent.glob("*.py")}
    used = sum((_referenced(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in sorted(trees.items()):
        defs = [node for top in tree.body
                for node in (top.body if isinstance(top, ast.ClassDef) else [top])
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        unused += [f"{module}: {node.name}" for node in defs
                   if node.name.startswith("_") and not node.name.startswith("__")
                   and used[node.name] == _referenced(node)[node.name]]
    assert unused == []


def _positional(node, method: bool) -> list[str]:
    """The positional parameters of def ``node``, but a method's first (self
    or cls)."""
    params = [p.arg for p in node.args.posonlyargs + node.args.args]
    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    return params[1:] if method and not static else params


def _defaulted(node, method: bool) -> list[str]:
    """The parameters of def ``node`` that have defaults, in order."""
    a, positional = node.args, _positional(node, method)
    return (positional[len(positional) - len(a.defaults):] if a.defaults else []) + [
        p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _supplied(node, call, method: bool):
    """The parameters of def ``node`` that ``call`` passes; None for all of
    them, when it passes *args or **kwargs."""
    if any(isinstance(x, ast.Starred) for x in call.args) or any(k.arg is None for k in call.keywords):
        return None
    return set(_positional(node, method)[:len(call.args)]) | {k.arg for k in call.keywords}


def _private_defaults():
    """Per defaulted parameter of a private function or method in the
    package: "module: name(parameter)" and, per call of the name in the
    package, whether it passes that parameter.  A call with *args or
    **kwargs passes every parameter; a function named without being called
    (passed to partial, say) may be called with any arguments, so it is
    skipped."""
    trees = {path.name: ast.parse(path.read_text()) for path in Path(spun4d.__file__).parent.glob("*.py")}
    calls, funcs, named = {}, set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(getattr(node.func, "id", getattr(node.func, "attr", None)), []).append(node)
                funcs.add(id(node.func))
        named |= {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in funcs}
    for module, tree in sorted(trees.items()):
        defs = [(node, isinstance(parent, ast.ClassDef)) for parent in ast.walk(tree)
                for node in ast.iter_child_nodes(parent) if isinstance(node, ast.FunctionDef)]
        for node, method in defs:
            if not node.name.startswith("_") or node.name.startswith("__") or node.name in named:
                continue
            supplied = [_supplied(node, call, method) for call in calls.get(node.name, [])]
            for p in _defaulted(node, method):
                yield f"{module}: {node.name}({p})", [s is None or p in s for s in supplied]


def test_every_default_of_a_private_function_is_taken_by_some_call():
    # a default that every call in the package overrides is an option that no
    # caller uses
    assert [name for name, passed in _private_defaults() if all(passed)] == []


def test_every_default_of_a_private_function_is_overridden_by_some_call():
    # a default that no call in the package overrides is a constant written as
    # an option
    assert [name for name, passed in _private_defaults() if not any(passed)] == []


def _verify_tree():
    return ast.parse((Path(spun4d.__file__).parent / "verify.py").read_text())


def test_verify_names_no_surface_model():
    # the scans reach a sampler through evaluate, its domains and flags and
    # _rows alone, so verify holds no per-model code path
    assert sorted({"Surface4", "PolyMap4"} & set(_referenced(_verify_tree()))) == []


def test_spin_and_twist_spin_share_one_spinning_step():
    # (x, y, h cos theta, h sin theta) is written once: the constructions in
    # spin.py and twist.py call Surface4( only inside twist._spun
    pkg = Path(spun4d.__file__).parent
    callers = []
    for module in ("spin.py", "twist.py"):
        for top in ast.parse((pkg / module).read_text()).body:
            callers += [f"{module}: {getattr(top, 'name', '<module>')}" for node in ast.walk(top)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "Surface4"]
    assert callers == ["twist.py: _spun"]


def test_verify_reads_only_the_sampling_contract_off_a_sampler():
    # every attribute that verify reads off its sampler argument s, directly
    # or by hasattr, is one of the sampling contract's
    read = set()
    for node in ast.walk(_verify_tree()):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "s":
            read.add(node.attr)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "hasattr"
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "s"):
            read.add(node.args[1].value)
    contract = {"evaluate", "_rows", "t_dom", "s_dom", "periodic_s", "pole_low", "pole_high"}
    assert sorted(read - contract) == []
    assert "_rows" in read


def test_each_input_rule_has_one_copy_in_poly():
    # a file is read as JSON by poly._read_json alone, and the rules of a
    # count, a real number and a keyed defect are each defined once, in poly
    loads, defs = [], []
    for path in sorted(Path(spun4d.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                    and node.func.attr == "load"):
                loads.append(path.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((node.name, path.name))
    assert loads == ["poly.py"]
    rules = ("_read_json", "_keyed", "_count", "_real", "_finite")
    assert sorted(d for d in defs if d[0] in rules) == sorted((name, "poly.py") for name in rules)
