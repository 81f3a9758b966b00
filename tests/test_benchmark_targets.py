"""The benchmark's traced run must find every function it wraps.

benchmark/run.py wraps the names in its TARGETS list where the CLI looks them
up, and its counter hooks read arguments of the wrapped call by name. Renaming
a function, dropping an import or a parameter would crash `--trace 1` only
when the benchmark runs, so this test reads TARGETS from the file (without
executing run.py) and resolves each entry against the package.
"""
import ast
import inspect
from importlib import import_module
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "benchmark" / "run.py"


def _targets_and_hook_keys():
    """TARGETS with each hook replaced by the args keys its body reads."""
    tree = ast.parse(RUN_PY.read_text())
    hooks = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assign = next(
        node for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    keys = {
        name: {
            node.slice.value for node in ast.walk(fn)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "args" and isinstance(node.slice, ast.Constant)
        }
        for name, fn in hooks.items()
    }
    # evaluate the list expression alone, each hook name standing for its keys
    return eval(compile(ast.Expression(assign.value), str(RUN_PY), "eval"), dict(keys))


def test_benchmark_targets_resolve():
    targets = _targets_and_hook_keys()
    read = set()
    for module, attr, span, keys in targets:
        fn = getattr(import_module(module), attr, None)
        assert callable(fn), f"{module}.{attr} (span {span}) does not resolve"
        if keys:
            missing = keys - set(inspect.signature(fn).parameters)
            assert not missing, f"{module}.{attr} lacks parameters {missing} its hook reads"
            read |= keys
    # the hooks were found, so the signature checks above were not vacuous
    assert read == {"phase_grid", "windows_per_point", "windows", "scan"}
