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
