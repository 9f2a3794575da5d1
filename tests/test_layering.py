"""Module layering.

Storage: only linalg may read ``Operator.entries``.  Everything else reads
``Operator.values``, so a change to how operators are stored touches
linalg alone, and no library path makes a real operator's complex128 copy.

Closed forms: ``exact`` imports only the standard library's exact
arithmetic, so a closed form shares no code with the numeric construction
it is checked against, and it is the one module besides typespace that
works in ``fractions``.

Randomness: ``commitment`` constructs its senders and draws nothing; the
Haar-random senders are a test oracle (``tests/senders.py``).
"""

import ast
from pathlib import Path

import numpy as np

import chslab
from chslab import commitment as cm
from chslab import locc as lc
from chslab import pseudo as ps
from chslab.linalg import Operator, RegisterShape
from chslab.registry import run_suite


def test_only_linalg_reads_entries():
    paths = sorted(Path(chslab.__file__).parent.glob("*.py"))
    assert {"linalg.py", "pseudo.py", "registry.py"} <= {p.name for p in paths}
    readers = [f"{path.name}:{node.lineno}"
               for path in paths if path.name != "linalg.py"
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert readers == []


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or "").split(".")[0])
    return names


def test_exact_imports_only_exact_arithmetic():
    paths = {p.name: p for p in Path(chslab.__file__).parent.glob("*.py")}
    assert _imported_modules(paths["exact.py"]) <= {
        "__future__", "fractions", "math", "itertools"}
    assert {name for name, path in paths.items()
            if "fractions" in _imported_modules(path)} == {"exact.py", "typespace.py"}


def test_commitment_draws_no_randomness():
    path = Path(chslab.__file__).parent / "commitment.py"
    tree = ast.parse(path.read_text(), str(path))
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            package = "." * node.level + (node.module or "")
            sep = "" if package.endswith(".") else "."
            modules |= {package} | {package + sep + alias.name for alias in node.names}
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert {".linalg", ".exact"} <= modules
    assert not modules & {".rng", "chslab.rng"}, sorted(modules)
    assert not names & {"haar_states_block", "stream_rng"}


def test_no_library_path_promotes_a_real_operator(monkeypatch):
    # the first read of a real operator's entries makes its complex128
    # copy; count the reads that find the float64 array still stored
    promoted = []
    read_entries = Operator.entries.fget

    def counting(op):
        if op._stored.dtype != np.complex128:
            promoted.append(op.shape.dims)
        return read_entries(op)

    monkeypatch.setattr(Operator, "entries", property(counting))
    pp = ps.PseudoParams
    # the exact path at D <= 1024, as the benchmark's exact-hybrids runs it
    ps.prs_hybrids(pp(5, 5, 1, 1))
    ps.prs_hybrids(pp(2, 2, 2, 3))
    ps.prs_multikey_hybrids(pp(3, 3, 1, 1), 2)
    ps.prfs_hybrids(pp(2, 3, 2, 1, (1, 1)), [(0,), (1,)])
    cm.hiding_distance(cm.CommitmentParams(2, 3, 2, 1))
    lc.ppt_diff_norm(10, 2)
    ps.rank_attack(pp(3, 3, 1, 2))
    assert all(report.passed for report in run_suite("all", 7))
    op = Operator(RegisterShape((2,)), np.eye(2))
    assert op.trace() == 2
    assert promoted == []
    op.entries
    assert promoted == [(2,)]


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
