"""Unit and property tests for the shaped dense linear algebra layer."""

import tracemalloc
from math import comb

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
    DEFAULT_DIM_CAP,
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
    _dense_eigh,
    _hermitian_defect,
    _psd_eigh,
    _spectrum,
)
from chslab.rng import stream_rng
from chslab.typespace import DEFAULT_ENUM_CAP, _class_scatter, haar_moment, sym_projector

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
    return Operator(shape, m / np.trace(m))


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product with ``a`` on the more significant registers."""
    return Operator(RegisterShape(a.shape.dims + b.shape.dims),
                    np.kron(a.entries, b.entries))


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
            Operator(QUBIT, np.array([[0, 1], [0, 0]], dtype=complex))


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
        Operator(RegisterShape((300,)), m)
        m[0, 299] += 10 * HERM_TOL
        assert _hermitian_defect(m) == one_shot_defect(m) > HERM_TOL
        with pytest.raises(ParameterError):
            Operator(RegisterShape((300,)), m)

    def test_nan_off_diagonal_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(ParameterError):
            Operator(QUBIT, m)

    # inf - inf is NaN, which numpy reports while the check fails as it should
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_inf_diagonal_rejected(self):
        m = np.diag([np.inf, 1.0]).astype(complex)
        with pytest.raises(ParameterError):
            Operator(QUBIT, m)

    def test_nan_in_last_tile_rejected(self):
        m = random_hermitian(stream_rng(22), 300)
        m[299, 299] = np.nan
        with pytest.raises(ParameterError):
            Operator(RegisterShape((300,)), m)

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
            Operator(RegisterShape((n,)), m)


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
                      np.outer(bell.amplitudes, bell.amplitudes.conj()))
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
        m[1, 2] = m[2, 1] = 1.0  # |01><10| + |10><01|
        out = partial_transpose(Operator(RegisterShape((2, 2)), m), [1])
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[3, 0] = 1.0  # |00><11| + |11><00|
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
                      np.outer(bell.amplitudes, bell.amplitudes.conj()))
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
            m = Operator(shape, random_hermitian(rng, shape.total))
            over = [r for r in range(len(dims)) if rng.random() < 0.5]
            pt = partial_transpose(m, over)
            np.testing.assert_allclose(partial_transpose(pt, over).entries,
                                       m.entries, atol=1e-12)
            assert pt.trace() == pytest.approx(m.trace(), abs=1e-10)
            assert np.abs(pt.entries - pt.entries.conj().T).max() < 1e-10


class TestNormsAndDistances:
    def test_trace_norm_identity(self):
        assert trace_norm(Operator(RegisterShape((4,)), np.eye(4))) == pytest.approx(4.0)

    def test_trace_norm_zero(self):
        assert trace_norm(Operator(QUBIT, np.zeros((2, 2)))) == 0.0

    def test_trace_norm_half(self):
        m = np.diag([1.0, 0.0]) - np.eye(2) / 2
        assert trace_norm(Operator(QUBIT, m)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_unitary_invariance(self):
        # oracle: numpy's singular values of the raw matrix h
        rng = stream_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            h = random_hermitian(rng, n)
            u = random_unitary(rng, n)
            shape = RegisterShape((n,))
            assert trace_norm(Operator(shape, u @ h @ u.conj().T)) == \
                pytest.approx(np.linalg.svd(h, compute_uv=False).sum(), abs=1e-8)

    def test_distance_examples(self):
        zero = ket(1, 0).density()
        one = ket(0, 1).density()
        mixed = Operator(QUBIT, np.eye(2) / 2)
        assert trace_distance(zero, zero) == 0.0
        assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(zero, mixed) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("flags", [(False, False), (True, False)])
    def test_distance_matches_svd_past_one_tile(self, flags):
        # oracle: singular values of the difference; flags say which operand
        # is real, so (True, False) takes a real minus a complex operator
        rng = stream_rng(23)
        shape = RegisterShape((10, 30))
        a, b = (Operator(shape, random_rank_density(rng, shape.total, shape.total,
                                                    real).values)
                for real in flags)
        assert (a.real, b.real) == flags
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
        mixed = Operator(QUBIT, np.eye(2) / 2)
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

    @pytest.mark.parametrize("blocks,size", [(2, 2), (2, 4), (4, 2), (3, 5)])
    def test_rank_deficient_block_closed_form(self, blocks, size):
        # a pure state dephased into equal blocks has rank `blocks`, with
        # weight w_b on block b; against I/d its fidelity is exactly
        # (sum_b sqrt(w_b))^2 / d, in either argument order.  Taking sqrt
        # over a whole spectrum put rounding noise of ~1e-17 on the null
        # space in as ~3e-9.
        rng = stream_rng(41)
        d = blocks * size
        shape = RegisterShape((d,))
        mask = np.kron(np.eye(blocks), np.ones((size, size)))
        mixed = Operator(shape, np.eye(d) / d)
        for _ in range(200):
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi /= np.linalg.norm(psi)
            weights = (np.abs(psi) ** 2).reshape(blocks, size).sum(axis=1)
            a = Operator(shape, np.outer(psi, psi.conj()) * mask)
            closed = np.sqrt(weights).sum() ** 2 / d
            assert fidelity(a, mixed) == pytest.approx(closed, rel=0, abs=1e-14)
            assert fidelity(mixed, a) == pytest.approx(closed, rel=0, abs=1e-14)

    def test_small_eigenvalue_kept(self):
        # 1e-9 is a true eigenvalue, far above rounding noise; it adds
        # sqrt(1e-9 / 2) to sqrt(F), so F = (sqrt(1 - 1e-9) + sqrt(1e-9))^2 / 2
        # = 0.5000316..., not 0.4999999995 as when it is dropped
        a = Operator(QUBIT, np.diag([1 - 1e-9, 1e-9]))
        mixed = Operator(QUBIT, np.eye(2) / 2)
        closed = (np.sqrt(1 - 1e-9) + np.sqrt(1e-9)) ** 2 / 2
        assert fidelity(a, mixed) == pytest.approx(closed, rel=0, abs=1e-14)
        assert fidelity(mixed, a) == pytest.approx(closed, rel=0, abs=1e-14)

    def test_not_psd(self):
        bad = Operator(QUBIT, np.diag([1.5, -0.5]))
        good = Operator(QUBIT, np.eye(2) / 2)
        with pytest.raises(NotPSD):
            fidelity(bad, good)

    def test_not_psd_second_argument(self):
        bad = Operator(QUBIT, np.diag([1.5, -0.5]))
        good = Operator(QUBIT, np.eye(2) / 2)
        with pytest.raises(NotPSD):
            fidelity(good, bad)


class TestPinvSqrtAndRank:
    def test_identity(self):
        eye = Operator(RegisterShape((3,)), np.eye(3))
        np.testing.assert_allclose(pinv_sqrt(eye, 0.5).entries, np.eye(3),
                                   atol=1e-12)

    def test_scaled_projector(self):
        m = Operator(QUBIT, np.diag([4.0, 0.0]))
        np.testing.assert_allclose(pinv_sqrt(m).entries, np.diag([0.5, 0.0]),
                                   atol=1e-12)

    def test_kernel_preserved(self):
        m = Operator(QUBIT, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(pinv_sqrt(m).entries, np.diag([1.0, 0.0]),
                                   atol=1e-12)

    def test_rank_examples(self):
        assert numeric_rank(Operator(RegisterShape((4,)), np.eye(4))) == 4
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
    return Operator(RegisterShape((n,)), (m + m.conj().T) / 2)


def random_block_density(rng, blocks, real):
    """Full-rank density that is nonzero only on the index blocks, the rows
    of ``blocks``; each block is a dense random density."""
    n = blocks.size
    m = np.zeros((n, n), dtype=np.complex128)
    for idx in blocks:
        m[np.ix_(idx, idx)] = random_rank_density(rng, len(idx), len(idx), real).entries
    return Operator(RegisterShape((n,)), m / len(blocks))


def complex_copy(m: Operator) -> Operator:
    """The same operator built from a complex128 array: not marked real."""
    return Operator(m.shape, m.entries.copy())


def real_built(m: Operator) -> Operator:
    """The same operator built from its float64 real part: marked real."""
    return Operator(m.shape, m.entries.real.copy())


class TestRealOperator:
    """An operator built from a real array is marked real, stores its
    float64 array until ``entries`` is read, reads the same complex128
    entries as one built from the complex copy, and its spectral results
    are those of the complex copy bit for bit."""

    def test_real_is_derived_and_storage_complex(self):
        m = np.array([[2.0, 1.0], [1.0, 3.0]])
        for entries, real in [(m, True), (m.astype(int), True),
                              (m.astype(np.complex128), False)]:
            op = Operator(QUBIT, entries)
            assert op.real is real
            assert op.entries.dtype == np.complex128
            np.testing.assert_array_equal(op.entries, m)
        with pytest.raises(TypeError):
            Operator(QUBIT, m, real=True)
        with pytest.raises(TypeError):
            Operator(QUBIT, m, hermitian_hint=True)

    def test_entries_copy_made_on_first_read(self):
        rng = stream_rng(33)
        # one tile of the Hermitian check, and D = 200, past one tile
        for n, where in [(6, (0, 5)), (200, (3, 190))]:
            z = rng.standard_normal((n, n))
            m = z + z.T
            op = Operator(RegisterShape((n,)), m)
            values = op.values
            assert values.dtype == np.float64
            before = values.tobytes()
            expected = values.astype(np.complex128).tobytes()
            entries = op.entries
            assert entries.dtype == np.complex128 and entries.tobytes() == expected
            assert op.entries is entries
            assert op.values.dtype == np.float64 and op.values.tobytes() == before
            for bad in (np.nan, m[where] + 1e-6):
                broken = m.copy()
                broken[where] = bad
                with pytest.raises(ParameterError):
                    Operator(RegisterShape((n,)), broken)

    def test_register_maps_keep_the_mark(self):
        shape = RegisterShape((2, 3))
        z = stream_rng(30).standard_normal((6, 6))
        for entries, real in [(z @ z.T, True), ((z @ z.T).astype(np.complex128), False)]:
            op = Operator(shape, entries)
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
        numeric_rank(Operator(RegisterShape((3,)), m))
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
            vals = _spectrum(m)
            assert np.all(np.diff(vals) >= 0)
            np.testing.assert_allclose(vals, np.linalg.eigvalsh(m), rtol=0, atol=1e-12)

    def test_eigenvectors_diagonalise(self, planted):
        for m, _ in planted:
            vals, vecs = _dense_eigh(_spectrum(m, vectors=True))
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
            vals, vecs = _dense_eigh(_psd_eigh(m))
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


def dense_difference_distance(a: Operator, b: Operator) -> float:
    """Oracle: half the trace norm of the dense difference a - b, formed as
    one D x D array and solved through the one-operand spectrum."""
    return 0.5 * float(np.abs(_spectrum(a.values - b.values)).sum())


def dense_pinv_sqrt(m: Operator, cutoff: float = 1e-10) -> np.ndarray:
    """Oracle: the inverse square root as one dense product over the dense
    eigenvector matrix."""
    vals, vecs = _dense_eigh(_psd_eigh(m.values))
    inv = np.where(vals > cutoff, 1.0 / np.sqrt(np.where(vals > cutoff, vals, 1.0)), 0.0)
    return (vecs * inv) @ vecs.conj().T


class TestBlockDifference:
    """The spectral step on a - b without the D x D difference: the zero
    pattern is read as a != b and each block gathered as a[idx] - b[idx]."""

    def test_complex_pair_with_equal_imaginary_parts_is_solved_real(self, monkeypatch):
        # a - b is real although neither operand is, so the blocks go to the
        # real solver, as the dense difference would
        seen = []

        def record(m, *args, _solver=np.linalg.eigvalsh, **kwargs):
            seen.append(np.asarray(m))
            return _solver(m, *args, **kwargs)

        rng = stream_rng(40)
        blocks = rng.permutation(96).reshape(12, 8)
        a = random_block_density(rng, blocks, real=False)
        delta = np.zeros((96, 96))
        for idx in blocks[::2]:
            z = rng.standard_normal((8, 8))
            delta[np.ix_(idx, idx)] = 1e-3 * (z + z.T)
        b = Operator(a.shape, a.entries + delta)
        assert not (a.real or b.real) and np.array_equal(a.values.imag, b.values.imag)
        assert a.values.imag.any()
        monkeypatch.setattr(np.linalg, "eigvalsh", record)
        td = trace_distance(a, b)
        # the six changed blocks, and the 48 indices where a - b is zero
        assert [(m.dtype, m.shape) for m in seen] == [(np.float64, (48, 1, 1)),
                                                      (np.float64, (6, 8, 8))]
        assert td == dense_difference_distance(a, b)
        assert td == pytest.approx(
            0.5 * np.abs(np.linalg.eigvalsh(delta)).sum(), abs=1e-12)

    def test_pair_differing_inside_one_block(self):
        rng = stream_rng(41)
        blocks = rng.permutation(96).reshape(12, 8)
        for real in (True, False):
            a = random_block_density(rng, blocks, real)
            m = a.entries.copy()
            inside = np.ix_(blocks[3], blocks[3])
            m[inside] = random_rank_density(rng, 8, 8, real).entries / 12
            b = Operator(a.shape, m)
            groups = _block_indices(a.values, b.values)
            assert [idx.shape for idx in groups] == [(88, 1), (1, 8)]
            np.testing.assert_array_equal(groups[1][0], np.sort(blocks[3]))
            td = trace_distance(a, b)
            assert td == dense_difference_distance(a, b)
            diff = a.entries[inside] - b.entries[inside]
            assert td == pytest.approx(
                0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(), abs=1e-12)

    def test_no_dense_difference_is_allocated(self):
        # D = 1024 in 64 blocks of 16: one float64 D x D array is 8 MiB
        rng = stream_rng(42)
        blocks = rng.permutation(1024).reshape(64, 16)
        a, b = (real_built(random_block_density(rng, blocks, True)) for _ in range(2))
        tracemalloc.start()
        try:
            td = trace_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8
        assert td == dense_difference_distance(a, b)


class TestBlockPinvSqrt:
    def test_matches_the_dense_product(self):
        rng = stream_rng(43)
        blocks = rng.permutation(96).reshape(12, 8)
        for real in (True, False):
            m = random_block_density(rng, blocks, real)
            assert _block_indices(m.values) is not None
            out = pinv_sqrt(m)
            assert out.real is real
            np.testing.assert_allclose(out.values, dense_pinv_sqrt(m), rtol=0,
                                       atol=1e-12)


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


def random_block_form(rng, sizes, real=True):
    """A block form of random Hermitian blocks, one stack per entry of
    ``sizes`` (a block size and a count), on randomly permuted indices."""
    perm = rng.permutation(sum(s * count for s, count in sizes))
    stacks, start = [], 0
    for s, count in sizes:
        idx = np.sort(perm[start:start + s * count].reshape(count, s), axis=1)
        z = rng.standard_normal((count, s, s))
        if not real:
            z = z + 1j * rng.standard_normal((count, s, s))
        stacks.append((idx, (z + z.conj().swapaxes(1, 2)) / 2))
        start += s * count
    return stacks


class TestBlockForm:
    """Operators built from (idx, block) stacks: the constructor's checks,
    the dense matrix assembled on first read, and the spectral step on the
    blocks against the dense operands."""

    SHAPE = RegisterShape((80,))

    def test_values_assemble_on_first_read(self):
        stacks = random_block_form(stream_rng(50), [(1, 10), (3, 10), (4, 10)])
        dense = np.zeros((80, 80))
        for idx, block in stacks:
            dense[idx[:, :, None], idx[:, None, :]] = block
        op = Operator(self.SHAPE, blocks=stacks)
        assert op.real and op._stored is None
        assert op.trace() == complex(np.trace(dense))
        assert op.hermitian_defect() == one_shot_defect(dense) == 0.0
        assert op._stored is None
        values = op.values
        assert values.dtype == np.float64 and values.tobytes() == dense.tobytes()
        assert op.values is values
        entries = op.entries
        assert entries.dtype == np.complex128 and np.array_equal(entries, dense)
        assert op.entries is entries and op.values.tobytes() == dense.tobytes()
        assert op.block_form is not None
        assert Operator(self.SHAPE, dense).block_form is None

    def test_complex_blocks_and_entries_read_first(self):
        stacks = random_block_form(stream_rng(51), [(2, 20), (5, 8)], real=False)
        op = Operator(self.SHAPE, blocks=stacks)
        assert not op.real
        dense = np.zeros((80, 80), dtype=np.complex128)
        for idx, block in stacks:
            dense[idx[:, :, None], idx[:, None, :]] = block
        assert op.entries.tobytes() == dense.tobytes()
        assert op.values is op.entries

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("broken", ["non-hermitian", "nan", "inf", "repeated",
                                        "missing", "descending", "descending-unsigned",
                                        "out-of-range",
                                        "shape", "both", "neither"])
    def test_constructor_refuses(self, broken):
        stacks = [(idx.copy(), block.copy()) for idx, block in random_block_form(
            stream_rng(52), [(1, 20), (3, 20)])]
        (idx1, block1), (idx3, block3) = stacks
        error = ParameterError
        if broken == "non-hermitian":
            block3[4, 0, 2] += 1e-9
        elif broken == "nan":
            block3[7, 1, 1] = np.nan
        elif broken == "inf":
            block3[7, 0, 1] = block3[7, 1, 0] = np.inf
        elif broken == "repeated":
            idx1[3, 0] = idx1[4, 0]
        elif broken == "missing":
            stacks = stacks[1:]
        elif broken == "descending":
            idx3[5] = idx3[5][::-1]
        elif broken == "descending-unsigned":
            idx3[5] = idx3[5][::-1]
            stacks = [(idx1, block1), (idx3.astype(np.uint64), block3)]
        elif broken == "out-of-range":
            idx1[0, 0] = 80
        elif broken == "shape":
            stacks = [(idx1, block1), (idx3, block3[:, :2])]
            error = ShapeMismatch
        with pytest.raises(error):
            if broken == "both":
                Operator(self.SHAPE, np.eye(80), blocks=stacks)
            elif broken == "neither":
                Operator(self.SHAPE)
            else:
                Operator(self.SHAPE, blocks=stacks)
        if broken == "non-hermitian":
            block3[4, 0, 2] -= 1e-9
            Operator(self.SHAPE, blocks=stacks)  # the same blocks pass once repaired

    @pytest.mark.parametrize("d,t", [(2, 2), (4, 2), (3, 3), (8, 2), (4, 4), (32, 2),
                                     (4, 5), (16, 3)])
    def test_moment_and_projector_equal_the_class_scatter(self, d, t):
        # up to D = 4096; the dense oracle scatters each class's constant
        count = comb(d + t - 1, t)
        moment = haar_moment(d, t)
        assert moment.real and moment.block_form is not None
        assert moment.values.tobytes() == _class_scatter(
            d, t, DEFAULT_DIM_CAP, DEFAULT_ENUM_CAP, count).tobytes()
        if d**t <= 1024:
            assert sym_projector(d, t).values.tobytes() == _class_scatter(
                d, t, DEFAULT_DIM_CAP, DEFAULT_ENUM_CAP, 1).tobytes()

    def test_block_pair_matches_the_dense_operands(self):
        # the join of two different partitions (blocks of 4 against blocks
        # of 2 on other indices) is coarser than either
        rng = stream_rng(53)
        a = Operator(self.SHAPE, blocks=random_block_form(rng, [(4, 20)]))
        b = Operator(self.SHAPE, blocks=random_block_form(rng, [(2, 40)]))
        dense_a, dense_b = (Operator(self.SHAPE, op.values.copy()) for op in (a, b))
        for op, dense in ((a, dense_a), (b, dense_b)):
            assert trace_norm(op) == trace_norm(dense)
            assert numeric_rank(op) == numeric_rank(dense) == 80
        assert trace_distance(a, b) == pytest.approx(
            trace_distance(dense_a, dense_b), abs=1e-13)
        assert trace_distance(a, b) == pytest.approx(
            0.5 * np.abs(np.linalg.eigvalsh(a.values - b.values)).sum(), abs=1e-13)

    def test_exact_cancellation_inside_the_join(self):
        # both operands hold the same off-diagonal entries on 40 blocks of 2,
        # so a - b is diagonal: its zero pattern splits every block the join
        # keeps whole
        rng = stream_rng(54)
        stacks = random_block_form(rng, [(2, 40)])
        (idx, block), = stacks
        shifted = block.copy()
        shifted[:, [0, 1], [0, 1]] += rng.uniform(-1, 1, (40, 2))
        a = Operator(self.SHAPE, blocks=[(idx, block)])
        b = Operator(self.SHAPE, blocks=[(idx, shifted)])
        assert _block_indices(a.values, b.values)[0].shape == (80, 1)
        dense = trace_distance(Operator(self.SHAPE, a.values.copy()),
                               Operator(self.SHAPE, b.values.copy()))
        assert abs(trace_distance(a, b) - dense) <= 1e-15

    def test_spectral_step_reads_no_dense_matrix(self, monkeypatch):
        # every spectral function on block operators above D = 64 works on
        # the blocks; the Operator would assemble only on a dense read
        rng = stream_rng(55)
        stacks = random_block_form(rng, [(1, 8), (3, 24)])
        a = Operator(self.SHAPE, blocks=[(idx, block @ block) for idx, block in stacks])
        b = Operator(self.SHAPE, blocks=random_block_form(rng, [(2, 40)]))
        assembled = []
        assemble = Operator._assemble
        monkeypatch.setattr(Operator, "_assemble",
                            lambda op, dtype: assembled.append(op.dim) or assemble(op, dtype))
        vals = _spectrum(a)
        system = _psd_eigh(a)
        trace_norm(a), trace_distance(a, b), numeric_rank(b)
        root = pinv_sqrt(a)
        assert assembled == []
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(a.values), rtol=0, atol=1e-12)
        np.testing.assert_allclose(root.values, dense_pinv_sqrt(a), rtol=0, atol=1e-12)
        assert [idx.shape for idx, _, _ in system] == [(8, 1), (24, 3)]
        assert assembled == [80, 80]
