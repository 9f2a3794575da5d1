"""Storage layering: only linalg reads an operator's stored ``entries``.

Everything else reads ``Operator.values``, so a change to how operators
are stored touches linalg alone.
"""

import ast
from pathlib import Path

import chslab


def test_only_linalg_reads_entries():
    paths = sorted(Path(chslab.__file__).parent.glob("*.py"))
    assert {"linalg.py", "pseudo.py", "registry.py"} <= {p.name for p in paths}
    readers = [f"{path.name}:{node.lineno}"
               for path in paths if path.name != "linalg.py"
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert readers == []


def test_every_check_tolerance_is_a_module_constant():
    # a tolerance is a name bound at registry.py's top level (a constant
    # there or an import), so every row's threshold is stated in one place
    path = Path(chslab.__file__).parent / "registry.py"
    tree = ast.parse(path.read_text(), str(path))
    module_names = {target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
    module_names |= {alias.asname or alias.name for node in tree.body
                     if isinstance(node, ast.ImportFrom) for alias in node.names}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("close", "below")]
    assert len(calls) > 30
    for call in calls:
        assert len(call.args) == 5 and not call.keywords, ast.unparse(call)
        tol = call.args[4]
        assert isinstance(tol, ast.Name) and tol.id in module_names, ast.unparse(call)
