"""Module layering.

Storage: only linalg may read ``Operator.entries``.  Everything else reads
``Operator.values``, so a change to how operators are stored touches
linalg alone, no library path makes a real operator's complex128 copy, and
none assembles a block operator's dense matrix above D = 64.

Spectra: only linalg calls numpy's ``eigh`` or ``eigvalsh``, so every
eigensolve goes through its one rule (block operators on their blocks,
anything else whole).

Sampling: only typespace calls a random generator's draw methods, so
every sampled stage (Haar states, Polya-urn draws) has one sampler module.

Closed forms: ``exact`` imports only the standard library's exact
arithmetic, so a closed form shares no code with the numeric construction
it is checked against, and it is the one module besides typespace that
works in ``fractions``.

Randomness: ``commitment`` constructs its senders and draws nothing; the
Haar-random senders are a test oracle (``tests/senders.py``).

One construction per fact: ``commitment`` contracts the swap-test factor
pair by pair and expands no subsets, and ``locc`` takes its independent
product from ``typespace`` without importing ``pseudo``.

Operator form: only linalg names ``_BLOCK_MIN_DIM``, so whether an
operator goes on dense or in blocks is chosen in one module.
"""

import ast
from pathlib import Path

import numpy as np

import chslab
from chslab import commitment as cm
from chslab import locc as lc
from chslab import pseudo as ps
from chslab.linalg import _BLOCK_MIN_DIM, Operator, RegisterShape
from chslab.registry import run_suite
from chslab.typespace import sample_haar


def test_only_linalg_reads_entries():
    paths = sorted(Path(chslab.__file__).parent.glob("*.py"))
    assert {"linalg.py", "pseudo.py", "registry.py"} <= {p.name for p in paths}
    readers = [f"{path.name}:{node.lineno}"
               for path in paths if path.name != "linalg.py"
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert readers == []


def test_only_linalg_calls_the_eigensolver():
    paths = sorted(Path(chslab.__file__).parent.glob("*.py"))
    assert "linalg.py" in {p.name for p in paths}
    callers = [f"{path.name}:{node.lineno}"
               for path in paths if path.name != "linalg.py"
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if (isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh"))
               or (isinstance(node, ast.Name) and node.id in ("eigh", "eigvalsh"))
               or (isinstance(node, ast.alias) and node.name in ("eigh", "eigvalsh"))]
    assert callers == []


def test_only_typespace_draws_from_a_generator():
    # the Generator's integer, normal, uniform and permutation draws; not
    # ``random``, which also names numpy's random module
    draws = {"integers", "standard_normal", "normal", "uniform", "choice",
             "permutation", "permuted", "shuffle"}
    paths = sorted(Path(chslab.__file__).parent.glob("*.py"))
    assert "typespace.py" in {p.name for p in paths}
    callers = [f"{path.name}:{node.lineno}"
               for path in paths if path.name != "typespace.py"
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Attribute) and node.attr in draws]
    assert callers == []


def test_only_linalg_names_the_block_threshold():
    paths = sorted(Path(chslab.__file__).parent.glob("*.py"))
    assert {"linalg.py", "commitment.py"} <= {p.name for p in paths}
    names = [path.name for path in paths
             if path.name != "linalg.py" and "_BLOCK_MIN_DIM" in path.read_text()]
    assert names == []


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


def _imported_names(path: Path) -> set[str]:
    """Every module a file imports and every name it imports from one."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
            names |= {alias.name for alias in node.names}
    return names


def test_commitment_expands_no_subsets():
    names = _imported_names(Path(chslab.__file__).parent / "commitment.py")
    assert {".linalg", "numpy", "fidelity"} <= names
    assert not names & {"itertools", "partial_trace"}, sorted(names)


def test_locc_does_not_import_pseudo():
    # importing pseudo, and chslab.exact with it, would add about 9 ms to
    # every fresh process that runs only the collision tester
    # (python -X importtime)
    names = _imported_names(Path(chslab.__file__).parent / "locc.py")
    assert {".typespace", "_ideal_state"} <= names
    assert not names & {".pseudo", "chslab.pseudo", "pseudo"}, sorted(names)


def test_no_library_path_promotes_a_real_operator(monkeypatch):
    # the first read of a real operator's entries makes its complex128
    # copy; count the reads that find no complex128 array stored yet, and
    # every dense assembly of a block operator above D = 64, where the
    # spectral step reads the blocks
    promoted, assembled = [], []
    read_entries = Operator.entries.fget
    assemble = Operator._assemble

    def counting(op):
        if op.real and (op._stored is None or op._stored.dtype != np.complex128):
            promoted.append(op.shape.dims)
        return read_entries(op)

    def counting_assembly(op, dtype):
        if op.dim > _BLOCK_MIN_DIM:
            assembled.append(op.shape.dims)
        return assemble(op, dtype)

    monkeypatch.setattr(Operator, "entries", property(counting))
    monkeypatch.setattr(Operator, "_assemble", counting_assembly)
    pp = ps.PseudoParams
    # the exact path at D <= 1024, as the benchmark's exact-hybrids runs it
    ps.prs_hybrids(pp(5, 5, 1, 1))
    ps.prs_hybrids(pp(2, 2, 2, 3))
    ps.prs_multikey_hybrids(pp(3, 3, 1, 1), 2)
    ps.prfs_hybrids(pp(2, 3, 2, 1, (1, 1)), [(0,), (1,)])
    cm.hiding_distance(cm.CommitmentParams(2, 3, 2, 1))
    lc.ppt_diff_norm(10, 2)
    ps.rank_attack(pp(3, 3, 1, 2))
    # the PPT sandwich's true moments (D = 1296) and the one-wayness product
    # (D = 512) are taken on their blocks
    lc.ppt_vs_haar_bound(6, 2)
    ps.onewayness_quantity(3, 2)
    # the averaged commit register against I/d at D = 256
    cm.fidelity_bound_check(2, 8, sample_haar(256, 7))
    assert all(report.passed for report in run_suite("all", 7))
    op = Operator(RegisterShape((2,)), np.eye(2))
    assert op.trace() == 2
    assert promoted == [] and assembled == []
    op.entries
    assert promoted == [(2,)]
    big = Operator(RegisterShape((65,)), blocks=[(np.arange(65)[:, None], np.ones((65, 1, 1)))])
    assert big.trace() == 65 and assembled == []
    big.values
    assert assembled == [(65,)]


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
