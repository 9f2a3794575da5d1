"""Unit and property tests for the shaped dense linear algebra layer."""

import numpy as np
import pytest

from chslab.errors import (
    BadRegisterIndex,
    DimensionOverflow,
    NotPSD,
    ParameterError,
    ShapeMismatch,
)
from chslab.linalg import (
    HERM_TOL,
    Operator,
    RegisterShape,
    StateVector,
    fidelity,
    numeric_rank,
    partial_trace,
    partial_transpose,
    permute_registers,
    pinv_sqrt,
    trace_distance,
    trace_norm,
    _BLOCK_MIN_DIM,
    _block_indices,
    _eigvalsh,
    _hermitian_defect,
    _psd_eigh,
    _spectrum,
)
from chslab.rng import stream_rng
from chslab.typespace import sym_projector

QUBIT = RegisterShape((2,))


def ket(*amps):
    a = np.asarray(amps, dtype=np.complex128)
    return StateVector(RegisterShape((len(a),)), a / np.linalg.norm(a))


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def random_density(rng, shape: RegisterShape):
    n = shape.total
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = z @ z.conj().T
    return Operator(shape, m / np.trace(m), hermitian_hint=True)


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product with ``a`` on the more significant registers."""
    return Operator(RegisterShape(a.shape.dims + b.shape.dims),
                    np.kron(a.entries, b.entries),
                    hermitian_hint=a.hermitian_hint and b.hermitian_hint)


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestShapes:
    def test_total_and_concat(self):
        s = RegisterShape((2, 3, 4))
        assert s.total == 24
        joined = RegisterShape(s.dims + (5,))
        assert joined.dims == (2, 3, 4, 5) and joined.total == 120

    def test_empty_shape_is_scalar(self):
        assert RegisterShape(()).total == 1

    def test_rejects_trivial_register(self):
        with pytest.raises(ShapeMismatch):
            RegisterShape((2, 1))

    def test_cap_enforced(self):
        with pytest.raises(DimensionOverflow):
            RegisterShape((2,) * 15).check_cap(16384)

    def test_state_norm_enforced(self):
        with pytest.raises(ParameterError):
            StateVector(QUBIT, np.array([1.0, 1.0]))

    def test_hermitian_hint_enforced(self):
        with pytest.raises(ParameterError):
            Operator(QUBIT, np.array([[0, 1], [0, 0]], dtype=complex),
                     hermitian_hint=True)


def one_shot_defect(m):
    """The untiled Hermitian defect, the oracle for the tiled check."""
    return float(np.abs(m - m.conj().T).max())


class TestHermitianCheck:
    """The tiled check is the one-shot maximum, bit for bit, and fails on
    any defect, NaN or infinity wherever it sits."""

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
    def test_tiled_defect_equals_one_shot(self, n):
        rng = stream_rng(n)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        near = random_hermitian(rng, n) + 1e-13 * z
        for m in (z, near, random_hermitian(rng, n)):
            assert _hermitian_defect(m) == one_shot_defect(m)

    def test_far_off_diagonal_tile_defect_rejected(self):
        # (0, 299) sits only in the tile pair (rows 0-127, columns 256-299)
        m = random_hermitian(stream_rng(21), 300)
        Operator(RegisterShape((300,)), m, hermitian_hint=True)
        m[0, 299] += 10 * HERM_TOL
        assert _hermitian_defect(m) == one_shot_defect(m) > HERM_TOL
        with pytest.raises(ParameterError):
            Operator(RegisterShape((300,)), m, hermitian_hint=True)

    def test_nan_off_diagonal_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(ParameterError):
            Operator(QUBIT, m, hermitian_hint=True)

    # inf - inf is NaN, which numpy reports while the check fails as it should
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_inf_diagonal_rejected(self):
        m = np.diag([np.inf, 1.0]).astype(complex)
        with pytest.raises(ParameterError):
            Operator(QUBIT, m, hermitian_hint=True)

    def test_nan_in_last_tile_rejected(self):
        m = random_hermitian(stream_rng(22), 300)
        m[299, 299] = np.nan
        with pytest.raises(ParameterError):
            Operator(RegisterShape((300,)), m, hermitian_hint=True)

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
    def test_real_defect_equals_complex_copy(self, n):
        # |x - y| in float64 is |(x + 0j) - (y + 0j)| bit for bit
        rng = stream_rng(100 + n)
        z = rng.standard_normal((n, n))
        sym = (z + z.T) / 2
        for m in (z, sym + 1e-13 * z, sym):
            assert _hermitian_defect(m) == _hermitian_defect(m.astype(np.complex128))
            assert _hermitian_defect(m) == one_shot_defect(m.astype(np.complex128))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("n,where,value", [
        (2, (0, 1), np.nan), (2, (0, 0), np.inf), (300, (299, 299), np.nan),
        (300, (0, 299), np.inf),
    ])
    def test_real_nan_and_inf_rejected(self, n, where, value):
        m = np.eye(n)
        m[where] = value
        with pytest.raises(ParameterError):
            Operator(RegisterShape((n,)), m, hermitian_hint=True)


class TestPartialTrace:
    def test_product_state(self):
        rng = stream_rng(1)
        rho = random_density(rng, QUBIT)
        sig = random_density(rng, RegisterShape((3,)))
        joint = kron(rho, sig)
        np.testing.assert_allclose(partial_trace(joint, [0]).entries,
                                   rho.entries, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, [1]).entries,
                                   sig.entries, atol=1e-12)

    def test_bell_state(self):
        bell = ket(1, 0, 0, 1)
        op = Operator(RegisterShape((2, 2)),
                      np.outer(bell.amplitudes, bell.amplitudes.conj()),
                      hermitian_hint=True)
        np.testing.assert_allclose(partial_trace(op, [0]).entries,
                                   np.eye(2) / 2, atol=1e-12)

    def test_trace_everything(self):
        rng = stream_rng(2)
        rho = random_density(rng, RegisterShape((2, 2)))
        out = partial_trace(rho, [])
        assert out.shape.dims == ()
        np.testing.assert_allclose(out.entries, [[1.0]], atol=1e-12)

    def test_bad_register(self):
        rho = random_density(stream_rng(3), QUBIT)
        with pytest.raises(BadRegisterIndex):
            partial_trace(rho, [1])

    def test_never_increases_distance(self):
        rng = stream_rng(4)
        shape = RegisterShape((2, 3))
        for _ in range(25):
            a, b = random_density(rng, shape), random_density(rng, shape)
            full = trace_distance(a, b)
            reduced = trace_distance(partial_trace(a, [0]), partial_trace(b, [0]))
            assert reduced <= full + 1e-10


class TestPartialTranspose:
    def test_matrix_unit(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 2] = 1.0  # |01><10|
        out = partial_transpose(Operator(RegisterShape((2, 2)), m), [1])
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = 1.0  # |00><11|
        np.testing.assert_allclose(out.entries, expected)

    def test_product_rule(self):
        rng = stream_rng(5)
        a = random_density(rng, QUBIT)
        b = random_density(rng, RegisterShape((3,)))
        joint = kron(a, b)
        out = partial_transpose(joint, [1])
        np.testing.assert_allclose(out.entries, np.kron(a.entries, b.entries.T),
                                   atol=1e-12)

    def test_bell_negativity(self):
        bell = ket(1, 0, 0, 1)
        op = Operator(RegisterShape((2, 2)),
                      np.outer(bell.amplitudes, bell.amplitudes.conj()),
                      hermitian_hint=True)
        pt = partial_transpose(op, [1])
        # independent eigendecomposition oracle
        eigs = np.sort(np.linalg.eigvalsh(pt.entries))
        np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
        assert trace_norm(pt) == pytest.approx(2.0, abs=1e-12)

    def test_involution_trace_hermiticity(self):
        rng = stream_rng(6)
        for _ in range(100):
            dims = tuple(rng.choice([2, 3, 4], size=rng.integers(1, 4)))
            while np.prod(dims) > 64:
                dims = dims[:-1]
            shape = RegisterShape(dims)
            m = Operator(shape, random_hermitian(rng, shape.total),
                         hermitian_hint=True)
            over = [r for r in range(len(dims)) if rng.random() < 0.5]
            pt = partial_transpose(m, over)
            np.testing.assert_allclose(partial_transpose(pt, over).entries,
                                       m.entries, atol=1e-12)
            assert pt.trace() == pytest.approx(m.trace(), abs=1e-10)
            assert np.abs(pt.entries - pt.entries.conj().T).max() < 1e-10


class TestNormsAndDistances:
    def test_trace_norm_identity(self):
        assert trace_norm(Operator(RegisterShape((4,)), np.eye(4),
                                   hermitian_hint=True)) == pytest.approx(4.0)

    def test_trace_norm_zero(self):
        assert trace_norm(Operator(QUBIT, np.zeros((2, 2)))) == 0.0

    def test_trace_norm_half(self):
        m = np.diag([1.0, 0.0]) - np.eye(2) / 2
        assert trace_norm(Operator(QUBIT, m, hermitian_hint=True)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_unitary_invariance(self):
        rng = stream_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u, v = random_unitary(rng, n), random_unitary(rng, n)
            shape = RegisterShape((n,))
            assert trace_norm(Operator(shape, u @ m @ v)) == \
                pytest.approx(trace_norm(Operator(shape, m)), abs=1e-8)

    def test_distance_examples(self):
        zero = ket(1, 0).density()
        one = ket(0, 1).density()
        mixed = Operator(QUBIT, np.eye(2) / 2, hermitian_hint=True)
        assert trace_distance(zero, zero) == 0.0
        assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(zero, mixed) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("flags", [(True, True), (True, False)])
    def test_distance_matches_svd_past_one_tile(self, flags):
        # oracle: singular values of the difference; (True, False) takes the
        # SVD path, (True, True) the eigenvalue path on the raw difference
        rng = stream_rng(23)
        shape = RegisterShape((10, 30))
        a, b = (random_density(rng, shape) for _ in range(2))
        a, b = (Operator(shape, m.entries, hermitian_hint=flag)
                for m, flag in zip((a, b), flags))
        oracle = 0.5 * np.linalg.svd(a.entries - b.entries, compute_uv=False).sum()
        assert trace_distance(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_distance_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            trace_distance(ket(1, 0).density(), ket(1, 0, 0).density())

    def test_triangle_inequality(self):
        rng = stream_rng(8)
        shape = RegisterShape((4,))
        for _ in range(50):
            a, b, c = (random_density(rng, shape) for _ in range(3))
            assert trace_distance(a, b) <= (trace_distance(a, c)
                                            + trace_distance(c, b) + 1e-10)


class TestFidelity:
    def test_examples(self):
        zero = ket(1, 0).density()
        one = ket(0, 1).density()
        mixed = Operator(QUBIT, np.eye(2) / 2, hermitian_hint=True)
        assert fidelity(zero, zero) == pytest.approx(1.0, abs=1e-10)
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-10)
        assert fidelity(zero, mixed) == pytest.approx(0.5, abs=1e-10)

    def test_multiplicative_over_tensor(self):
        rng = stream_rng(9)
        for _ in range(20):
            a, b = (random_density(rng, QUBIT) for _ in range(2))
            c, d = (random_density(rng, RegisterShape((3,))) for _ in range(2))
            lhs = fidelity(kron(a, c), kron(b, d))
            rhs = fidelity(a, b) * fidelity(c, d)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_not_psd(self):
        bad = Operator(QUBIT, np.diag([1.5, -0.5]), hermitian_hint=True)
        good = Operator(QUBIT, np.eye(2) / 2, hermitian_hint=True)
        with pytest.raises(NotPSD):
            fidelity(bad, good)

    def test_not_psd_second_argument(self):
        bad = Operator(QUBIT, np.diag([1.5, -0.5]), hermitian_hint=True)
        good = Operator(QUBIT, np.eye(2) / 2, hermitian_hint=True)
        with pytest.raises(NotPSD):
            fidelity(good, bad)


class TestPinvSqrtAndRank:
    def test_identity(self):
        eye = Operator(RegisterShape((3,)), np.eye(3), hermitian_hint=True)
        np.testing.assert_allclose(pinv_sqrt(eye, 0.5).entries, np.eye(3),
                                   atol=1e-12)

    def test_scaled_projector(self):
        m = Operator(QUBIT, np.diag([4.0, 0.0]), hermitian_hint=True)
        np.testing.assert_allclose(pinv_sqrt(m).entries, np.diag([0.5, 0.0]),
                                   atol=1e-12)

    def test_kernel_preserved(self):
        m = Operator(QUBIT, np.diag([1.0, 0.0]), hermitian_hint=True)
        np.testing.assert_allclose(pinv_sqrt(m).entries, np.diag([1.0, 0.0]),
                                   atol=1e-12)

    def test_rank_examples(self):
        assert numeric_rank(Operator(RegisterShape((4,)), np.eye(4),
                                     hermitian_hint=True)) == 4
        one_hot = StateVector(RegisterShape((4,)), np.eye(4, dtype=complex)[0])
        assert numeric_rank(one_hot.density()) == 1
        assert numeric_rank(sym_projector(2, 2)) == 3


def random_rank_density(rng, n, rank, real):
    """Density of the given rank, nonzero eigenvalues in [1, 2] before
    normalising, in a random real orthogonal or complex unitary basis."""
    z = rng.standard_normal((n, n))
    if not real:
        z = z + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    vals = np.zeros(n)
    vals[:rank] = rng.uniform(1.0, 2.0, rank)
    m = (q * (vals / vals.sum())) @ q.conj().T
    return Operator(RegisterShape((n,)), (m + m.conj().T) / 2, hermitian_hint=True)


def random_block_density(rng, blocks, real):
    """Full-rank density that is nonzero only on the index blocks, the rows
    of ``blocks``; each block is a dense random density."""
    n = blocks.size
    m = np.zeros((n, n), dtype=np.complex128)
    for idx in blocks:
        m[np.ix_(idx, idx)] = random_rank_density(rng, len(idx), len(idx), real).entries
    return Operator(RegisterShape((n,)), m / len(blocks), hermitian_hint=True)


def complex_copy(m: Operator) -> Operator:
    """The same operator built from a complex128 array: not marked real."""
    return Operator(m.shape, m.entries.copy(), hermitian_hint=m.hermitian_hint)


def real_built(m: Operator) -> Operator:
    """The same operator built from its float64 real part: marked real."""
    return Operator(m.shape, m.entries.real.copy(), hermitian_hint=m.hermitian_hint)


class TestRealOperator:
    """An operator built from a real array is marked real, stores the same
    complex128 entries as one built from the complex copy, and its spectral
    results are those of the complex copy bit for bit."""

    def test_real_is_derived_and_storage_complex(self):
        m = np.array([[2.0, 1.0], [1.0, 3.0]])
        for entries, real in [(m, True), (m.astype(int), True),
                              (m.astype(np.complex128), False)]:
            op = Operator(QUBIT, entries, hermitian_hint=True)
            assert op.real is real
            assert op.entries.dtype == np.complex128
            np.testing.assert_array_equal(op.entries, m)
        with pytest.raises(TypeError):
            Operator(QUBIT, m, real=True)

    def test_register_maps_keep_the_mark(self):
        shape = RegisterShape((2, 3))
        z = stream_rng(30).standard_normal((6, 6))
        for entries, real in [(z @ z.T, True), ((z @ z.T).astype(np.complex128), False)]:
            op = Operator(shape, entries, hermitian_hint=True)
            for out in (partial_transpose(op, [1]), partial_trace(op, [0]),
                        permute_registers(op, (1, 0))):
                assert out.real is real and out.entries.dtype == np.complex128
            np.testing.assert_array_equal(
                partial_transpose(op, [1]).entries,
                partial_transpose(complex_copy(op), [1]).entries)
            np.testing.assert_array_equal(
                permute_registers(op, (1, 0)).entries,
                permute_registers(complex_copy(op), (1, 0)).entries)

    @pytest.mark.parametrize("nblocks", [1, 12])
    def test_spectral_results_match_complex_copy_bit_for_bit(self, nblocks):
        # one dense 16-square pair, and 12 blocks of 8 in random order
        # (D = 96, solved in blocks)
        rng = stream_rng(31)
        if nblocks == 1:
            a, b, c = (random_rank_density(rng, 16, rank, True) for rank in (7, 16, 16))
        else:
            blocks = rng.permutation(8 * nblocks).reshape(nblocks, 8)
            a, b, c = (random_block_density(rng, blocks, True) for _ in range(3))
        a, b, c = (real_built(m) for m in (a, b, c))
        ac, bc, cc = (complex_copy(m) for m in (a, b, c))
        assert a.real and b.real and c.real and not (ac.real or bc.real or cc.real)
        assert trace_norm(a) == trace_norm(ac)
        assert trace_distance(a, b) == trace_distance(ac, bc)
        assert numeric_rank(a) == numeric_rank(ac)
        np.testing.assert_array_equal(pinv_sqrt(a).entries, pinv_sqrt(ac).entries)
        assert pinv_sqrt(a).real
        assert fidelity(c, b) == fidelity(cc, bc)
        # not Hermitian: the singular values of the same float64 matrix
        plain = Operator(a.shape, a.entries.real @ b.entries.real)
        other = Operator(a.shape, b.entries.real @ c.entries.real)
        assert trace_norm(plain) == trace_norm(complex_copy(plain))
        assert trace_distance(plain, other) == trace_distance(complex_copy(plain),
                                                              complex_copy(other))


class TestRealSpectralPath:
    """A real operator, or a complex128 one whose imaginary part is exactly
    zero, is solved by the real symmetric solver; any nonzero imaginary
    entry keeps it complex."""

    @pytest.fixture
    def solver_inputs(self, monkeypatch):
        seen = []
        for name in ("eigvalsh", "eigh"):
            def record(m, *args, _solver=getattr(np.linalg, name), **kwargs):
                seen.append(np.asarray(m))
                return _solver(m, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, record)
        return seen

    @pytest.mark.parametrize("real,built,expected,nblocks", [
        pytest.param(True, complex_copy, np.float64, 1, id="True-float64"),
        pytest.param(False, complex_copy, np.complex128, 1, id="False-complex128"),
        # 12 blocks of 8 in random order, D = 96 above the crossover: every
        # spectral input (a, a - b and the fidelity's middle operator) keeps
        # the blocks, so each solve is one (12, 8, 8) stack
        pytest.param(True, complex_copy, np.float64, 12, id="blocks-True-float64"),
        pytest.param(False, complex_copy, np.complex128, 12,
                     id="blocks-False-complex128"),
        # built from float64 arrays: marked real, read without a scan
        pytest.param(True, real_built, np.float64, 1, id="real-built-float64"),
        pytest.param(True, real_built, np.float64, 12, id="blocks-real-built-float64"),
    ])
    def test_solver_dtype_follows_imaginary_part(self, solver_inputs, real, built,
                                                 expected, nblocks):
        rng = stream_rng(12)
        if nblocks == 1:
            a, b = (random_rank_density(rng, 6, 6, real) for _ in range(2))
            shape = (6, 6)
        else:
            blocks = rng.permutation(8 * nblocks).reshape(nblocks, 8)
            a, b = (random_block_density(rng, blocks, real) for _ in range(2))
            assert a.dim > _BLOCK_MIN_DIM
            shape = (nblocks, 8, 8)
        a, b = built(a), built(b)
        assert a.real is b.real is (built is real_built)
        assert a.entries.dtype == np.complex128
        trace_norm(a)
        trace_distance(a, b)
        numeric_rank(a)
        pinv_sqrt(a)
        fidelity(a, b)
        assert len(solver_inputs) == 7
        assert all(m.dtype == expected for m in solver_inputs)
        assert all(m.shape == shape for m in solver_inputs)

    def test_one_imaginary_entry_keeps_the_complex_solver(self, solver_inputs):
        # the test is exact zero, not a tolerance: 1e-300j is kept
        m = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
        m[0, 2], m[2, 0] = 1e-300j, -1e-300j
        numeric_rank(Operator(RegisterShape((3,)), m, hermitian_hint=True))
        assert [m.dtype for m in solver_inputs] == [np.complex128]

    @pytest.mark.parametrize("real", [True, False])
    def test_matches_complex_oracles(self, real):
        # oracles: singular values and the complex Hermitian eigh of the
        # complex128 entries, which never take the real path
        rng = stream_rng(13 if real else 14)
        for n, rank in [(5, 5), (8, 3), (16, 16), (16, 7)]:
            a = random_rank_density(rng, n, rank, real)
            b = random_rank_density(rng, n, n, real)
            diff = a.entries - b.entries
            assert trace_norm(a) == pytest.approx(
                np.linalg.svd(a.entries, compute_uv=False).sum(), abs=1e-12)
            assert trace_distance(a, b) == pytest.approx(
                0.5 * np.linalg.svd(diff, compute_uv=False).sum(), abs=1e-12)
            vals, vecs = np.linalg.eigh(a.entries)
            assert numeric_rank(a) == int(
                (np.abs(vals) > 1e-8 * np.abs(vals).max()).sum()) == rank
            keep = vals > 1e-10
            inv_root = (vecs[:, keep] / np.sqrt(vals[keep])) @ vecs[:, keep].conj().T
            np.testing.assert_allclose(pinv_sqrt(a).entries, inv_root, rtol=0,
                                       atol=1e-12)
            full = random_rank_density(rng, n, n, real)
            roots = []
            for m in (full, b):
                mv, mu = np.linalg.eigh(m.entries)
                roots.append((mu * np.sqrt(mv)) @ mu.conj().T)
            oracle = np.linalg.svd(roots[0] @ roots[1], compute_uv=False).sum() ** 2
            assert fidelity(full, b) == pytest.approx(oracle, abs=1e-12)


def planted_hermitian(rng, blocks, real, zero_rows=0):
    """Hermitian matrix made of the given ``(size, kind)`` blocks on randomly
    permuted indices, plus ``zero_rows`` all-zero rows and columns.

    A "dense" block has every entry nonzero, a "hollow" one a zero diagonal
    and every off-diagonal entry nonzero, and a "path" one is tridiagonal.
    Returns the matrix and its components as sorted index tuples.
    """
    n = sum(size for size, _ in blocks) + zero_rows
    m = np.zeros((n, n), dtype=np.complex128)
    perm = rng.permutation(n)
    components, start = [], 0
    for size, kind in blocks:
        z = rng.standard_normal((size, size))
        if not real:
            z = z + 1j * rng.standard_normal((size, size))
        h = (z + z.conj().T) / np.sqrt(8 * size)
        if kind == "hollow":
            np.fill_diagonal(h, 0.0)
        elif kind == "path":
            h = np.triu(np.tril(h, 1), -1)
        idx = perm[start:start + size]
        m[np.ix_(idx, idx)] = h
        components.append(tuple(sorted(idx)))
        start += size
    components += [(int(i),) for i in perm[start:]]
    return m, sorted(components)


SPECTRUM_CASES = {
    "mixed-below": ([(1, "dense"), (2, "dense"), (3, "hollow"), (5, "dense"),
                     (8, "dense"), (13, "dense")], 2),
    "mixed-above": ([(1, "dense"), (2, "hollow"), (3, "dense"), (5, "dense"),
                     (8, "dense"), (13, "dense"), (24, "dense"), (45, "dense"),
                     (24, "dense")], 3),
    "hollow": ([(2, "hollow")] * 20 + [(3, "hollow")] * 10 + [(7, "hollow")] * 5, 0),
    "one-component": ([(100, "dense")], 0),
    "one-chain": ([(150, "path")], 0),
    "two-chains": ([(70, "path"), (80, "path")], 0),
    "singletons": ([(1, "dense")] * 100, 0),
    "zero-rows": ([(6, "dense")] * 15, 10),
}


class TestBlockSpectrum:
    """The block-aware solve against dense numpy solves of the whole matrix."""

    @pytest.fixture(params=sorted(SPECTRUM_CASES))
    def planted(self, request):
        blocks, zero_rows = SPECTRUM_CASES[request.param]
        rng = stream_rng(20 + sorted(SPECTRUM_CASES).index(request.param))
        return [planted_hermitian(rng, blocks, real, zero_rows) for real in (True, False)]

    def test_blocks_are_the_components(self, planted):
        for m, components in planted:
            groups = _block_indices(m)
            if len(m) <= _BLOCK_MIN_DIM or len(components) == 1:
                assert groups is None
                continue
            assert sorted(tuple(row) for idx in groups for row in idx) == components
            sizes = [idx.shape[1] for idx in groups]  # one stack per block size
            assert len(set(sizes)) == len(sizes)

    def test_eigenvalues_match_dense(self, planted):
        for m, _ in planted:
            vals = _eigvalsh(m)
            assert np.all(np.diff(vals) >= 0)
            np.testing.assert_allclose(vals, np.linalg.eigvalsh(m), rtol=0, atol=1e-12)

    def test_eigenvectors_diagonalise(self, planted):
        for m, _ in planted:
            vals, vecs = _spectrum(m, vectors=True)
            assert vecs.shape == m.shape and np.all(np.diff(vals) >= 0)
            np.testing.assert_allclose(vals, np.linalg.eigvalsh(m), rtol=0, atol=1e-12)
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(len(m)), rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(m @ vecs, vecs * vals, rtol=0, atol=1e-12)

    def test_psd_eigh_matches_dense(self, planted):
        # the square of a Hermitian matrix is PSD with components no larger
        for h, _ in planted:
            m = h @ h
            m = (m + m.conj().T) / 2
            vals, vecs = _psd_eigh(m)
            assert np.all(np.diff(vals) >= 0) and np.all(vals >= 0)
            np.testing.assert_allclose(vals, np.clip(np.linalg.eigvalsh(m), 0, None),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(len(m)), rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(m @ vecs, vecs * vals, rtol=0, atol=1e-12)

    def test_psd_eigh_rejects_a_negative_block(self):
        rng = stream_rng(30)
        m, _ = planted_hermitian(rng, [(4, "dense")] * 30, real=True)
        m = m @ m
        m[0, 0] -= 1.0 + np.linalg.eigvalsh(m).max()
        with pytest.raises(NotPSD):
            _psd_eigh(m)


class TestPermuteRegisters:
    def test_roundtrip(self):
        rng = stream_rng(10)
        shape = RegisterShape((2, 3, 4))
        rho = random_density(rng, shape)
        perm = (2, 0, 1)
        out = permute_registers(rho, perm)
        assert out.shape.dims == (4, 2, 3)
        inverse = tuple(np.argsort(perm))
        np.testing.assert_allclose(permute_registers(out, inverse).entries,
                                   rho.entries, atol=1e-14)

    def test_swap_matches_kron(self):
        rng = stream_rng(11)
        a = random_density(rng, QUBIT)
        b = random_density(rng, RegisterShape((3,)))
        swapped = permute_registers(kron(a, b), (1, 0))
        np.testing.assert_allclose(swapped.entries,
                                   np.kron(b.entries, a.entries), atol=1e-14)
