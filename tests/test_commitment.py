"""Tests for the swap-test commitment: completeness, hiding, fidelity
bound, and sum-binding of honest senders and the optimal sender, with
Haar-random senders as the oracle that none beats the optimum."""

import numpy as np
import pytest

from chslab import exact
from chslab.commitment import (
    CommitmentParams,
    MaliciousSender,
    binding_sum,
    commit_pair_state,
    commit_state,
    fidelity_bound_check,
    hiding_distance,
    honest_strategy,
    optimal_attack,
    receiver_accept_prob,
)
from chslab.errors import DimensionOverflow, NotUnitary, ParameterError, ShapeMismatch
from chslab.linalg import (
    DEFAULT_DIM_CAP,
    Operator,
    RegisterShape,
    StateVector,
    partial_trace,
    trace_distance,
)
from chslab.pseudo import _keyed_state
from chslab.rng import stream_rng
from chslab.typespace import DEFAULT_ENUM_CAP, haar_moment, sample_haar
from senders import random_strategy


def binding_bound(cp: CommitmentParams) -> float:
    return 1.0 + ((1.0 + 2.0 ** (-(cp.n - cp.lam) / 2.0)) / 2.0) ** cp.p


def dense_accept_povm(b, common, cp):
    """Independent oracle: materialise M_b = prod (I + proj)/2 explicitly."""
    pair = commit_pair_state(b, common, cp).amplitudes
    block = (np.eye(pair.size) + np.outer(pair, pair.conj())) / 2.0
    out = np.ones((1, 1))
    for _ in range(cp.p):
        out = np.kron(out, block)
    return out


class TestCommitState:
    def test_bit_one_maximally_entangled(self):
        cp = CommitmentParams(1, 2, 1)
        common = sample_haar(4, seed=0)
        pair = commit_pair_state(1, common, cp)
        reduced = partial_trace(pair.density(), [1])
        np.testing.assert_allclose(reduced.entries, np.eye(4) / 4, atol=1e-12)

    def test_bit_zero_empty_key(self):
        cp = CommitmentParams(0, 2, 1)
        common = sample_haar(4, seed=1)
        pair = commit_pair_state(0, common, cp)
        expected = np.kron(common.amplitudes, np.eye(4)[0])
        np.testing.assert_allclose(pair.amplitudes, expected, atol=1e-12)

    def test_bit_zero_explicit_expansion(self):
        # common = |00>, lam=1, n=2: the phase never acts, two openings survive
        cp = CommitmentParams(1, 2, 1)
        common = StateVector(RegisterShape((4,)), np.eye(4)[0])
        pair = commit_pair_state(0, common, cp)
        expected = np.zeros(16, dtype=complex)
        expected[0] = expected[2] = 1 / np.sqrt(2)  # |00>|00> and |00>|10>
        np.testing.assert_allclose(pair.amplitudes, expected, atol=1e-12)

    def test_tensor_power_layout(self):
        cp = CommitmentParams(1, 2, 2)
        common = sample_haar(4, seed=2)
        one = commit_pair_state(0, common, cp).amplitudes
        two = commit_state(0, common, cp)
        assert two.shape.dims == (4, 4, 4, 4)
        np.testing.assert_allclose(two.amplitudes, np.kron(one, one), atol=1e-12)

    def test_parameter_guard(self):
        with pytest.raises(ParameterError):
            CommitmentParams(2, 2, 1)


class TestReceiverAcceptProb:
    @pytest.mark.parametrize("b", [0, 1])
    @pytest.mark.parametrize("p", [1, 2])
    def test_honest_accepts_exactly(self, b, p):
        cp = CommitmentParams(1, 2, p)
        common = sample_haar(4, seed=3)
        claimed = commit_state(b, common, cp).density()
        assert receiver_accept_prob(b, claimed, common, cp) == pytest.approx(
            1.0, abs=1e-10)

    def test_orthogonal_half_per_pair(self):
        cp = CommitmentParams(1, 2, 1)
        common = sample_haar(4, seed=4)
        psi0 = commit_state(0, common, cp)
        v = np.zeros(16, dtype=complex)
        v[5] = 1.0
        v -= np.vdot(psi0.amplitudes, v) * psi0.amplitudes
        v /= np.linalg.norm(v)
        claimed = StateVector(psi0.shape, v).density()
        assert receiver_accept_prob(0, claimed, common, cp) == pytest.approx(
            0.5, abs=1e-10)

    @pytest.mark.parametrize("p", [1, 2])
    def test_maximally_mixed_closed_form(self, p):
        cp = CommitmentParams(1, 2, p)
        common = sample_haar(4, seed=5)
        dim = 16**p
        claimed = Operator(RegisterShape((4,) * (2 * p)), np.eye(dim) / dim)
        expected = (0.5 * (1 + 1 / 16)) ** p
        assert receiver_accept_prob(0, claimed, common, cp) == pytest.approx(
            expected, abs=1e-12)

    def test_matches_dense_povm_oracle(self):
        cp = CommitmentParams(1, 2, 2)
        common = sample_haar(4, seed=6)
        rng = stream_rng(7)
        z = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        m = z @ z.conj().T
        claimed = Operator(RegisterShape((4, 4, 4, 4)), m / np.trace(m))
        for b in (0, 1):
            dense = dense_accept_povm(b, common, cp)
            expected = float(np.real(np.trace(dense @ claimed.entries)))
            assert receiver_accept_prob(b, claimed, common, cp) == pytest.approx(
                expected, abs=1e-12)

    def test_matches_dense_povm_oracle_at_three_pairs(self):
        cp = CommitmentParams(0, 1, 3)
        common = sample_haar(2, seed=19)
        rng = stream_rng(20)
        z = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        m = z @ z.conj().T
        claimed = Operator(RegisterShape((2,) * 6), m / np.trace(m))
        for b in (0, 1):
            dense = dense_accept_povm(b, common, cp)
            expected = float(np.real(np.trace(dense @ claimed.entries)))
            assert receiver_accept_prob(b, claimed, common, cp) == pytest.approx(
                expected, rel=0, abs=1e-14)

    def test_povm_element_is_valid(self):
        cp = CommitmentParams(1, 2, 2)
        common = sample_haar(4, seed=8)
        for b in (0, 1):
            eigs = np.linalg.eigvalsh(dense_accept_povm(b, common, cp))
            assert eigs.min() >= -1e-12 and eigs.max() <= 1.0 + 1e-12

    def test_shape_guard(self):
        cp = CommitmentParams(1, 2, 2)
        common = sample_haar(4, seed=9)
        claimed = Operator(RegisterShape((4, 4)), np.eye(16) / 16)
        with pytest.raises(ShapeMismatch):
            receiver_accept_prob(0, claimed, common, cp)


class TestHiding:
    @pytest.mark.parametrize("lam,n,p,t", [(1, 2, 1, 1), (1, 3, 1, 1),
                                           (2, 3, 2, 1), (1, 2, 2, 2)])
    def test_matches_explicit_branch_build(self, lam, n, p, t):
        # oracle: branch 1 is p maximally mixed commit registers tensored
        # with the t-copy moment, built by hand
        d = 2**n
        branch0 = _keyed_state(d, p + t, n - lam, [(i,) for i in range(p)],
                               DEFAULT_DIM_CAP, DEFAULT_ENUM_CAP)
        entries = np.ones((1, 1), dtype=complex)
        for _ in range(p):
            entries = np.kron(entries, np.eye(d) / d)
        entries = np.kron(entries, haar_moment(d, t).entries)
        branch1 = Operator(branch0.shape, entries)
        assert hiding_distance(CommitmentParams(lam, n, p, t)) == pytest.approx(
            trace_distance(branch0, branch1), abs=1e-12)

    def test_no_observer_copies(self):
        assert hiding_distance(CommitmentParams(1, 2, 1, 0)) == pytest.approx(
            0.0, abs=1e-12)

    def test_frozen_exact_values(self):
        # spectral block analysis of the pinched two-copy moment gives
        # 9/40 at (lam=1, n=2) and 35/144 at (lam=1, n=3), p = t = 1
        assert hiding_distance(CommitmentParams(1, 2, 1, 1)) == pytest.approx(
            9 / 40, abs=1e-12)
        assert hiding_distance(CommitmentParams(1, 3, 1, 1)) == pytest.approx(
            35 / 144, abs=1e-12)

    def test_decays_in_key_length(self):
        td1 = hiding_distance(CommitmentParams(1, 3, 1, 1))
        td2 = hiding_distance(CommitmentParams(2, 3, 1, 1))
        assert td2 < td1


class TestFidelityBound:
    @pytest.mark.parametrize("lam,n", [(1, 2), (2, 3)])
    def test_hundred_haar_seeds(self, lam, n):
        for s in range(100):
            F, bound = fidelity_bound_check(lam, n, sample_haar(2**n, 50, stream=s))
            assert bound == 2.0 ** -(n - lam)
            assert F <= bound + 1e-9

    def test_all_zero_state(self):
        n = 3
        common = StateVector(RegisterShape((8,)), np.eye(8)[0])
        F, bound = fidelity_bound_check(1, n, common)
        assert F == pytest.approx(2.0**-n, abs=1e-10)
        assert F <= bound + 1e-9

    @pytest.mark.parametrize("lam,n,stream,F", [
        (1, 7, 1, 0.01557195668795171),
        (1, 8, 0, 0.007809542302495839),
        (4, 8, 0, 0.0609742213225233),
    ])
    def test_pinned_above_the_crossover(self, lam, n, stream, F):
        # D = 128 and 256: solved on the 2^lam label blocks; one whole
        # solve of the dense average moves these in the last bits
        assert fidelity_bound_check(lam, n, sample_haar(2**n, 7, stream=stream))[0] == F

    @pytest.mark.parametrize("lam,n", [(0, 7), (2, 8), (3, 9), (8, 9)])
    def test_solved_on_the_label_blocks(self, monkeypatch, lam, n):
        # the averaged state is 2^lam blocks of 2^(n - lam) and I/d is D
        # blocks of one; neither is assembled or solved whole
        seen = []
        for name in ("eigh", "eigvalsh"):
            def record(m, *args, _solver=getattr(np.linalg, name), **kwargs):
                seen.append(np.shape(m))
                return _solver(m, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, record)

        def refuse(op, dtype):
            raise AssertionError(f"assembled {op.shape.dims}")

        monkeypatch.setattr(Operator, "_assemble", refuse)
        common = sample_haar(2**n, 7, stream=0)
        F, _ = fidelity_bound_check(lam, n, common)
        size = 2**(n - lam)
        # the middle matrix on the support: rank one per block
        assert seen == [(2**lam, size, size), (2**n, 1, 1), (2**lam, 2**lam)]
        weights = (np.abs(common.amplitudes) ** 2).reshape(2**lam, -1).sum(axis=1)
        assert F == pytest.approx(np.sqrt(weights).sum() ** 2 / 2**n, rel=0, abs=1e-14)

    def test_parameter_guard(self):
        with pytest.raises(ParameterError):
            fidelity_bound_check(2, 2, sample_haar(4, 0))

    def test_cap_is_checked(self):
        with pytest.raises(DimensionOverflow):
            fidelity_bound_check(1, 2, sample_haar(4, 0), cap=3)
        assert fidelity_bound_check(1, 2, sample_haar(4, 0), cap=4)[0] > 0.0


class TestBindingSum:
    def test_honest_senders(self):
        cp = CommitmentParams(1, 2, 1)
        common = sample_haar(4, seed=10)
        p0, p1 = binding_sum(honest_strategy(0, common, cp), common, cp)
        assert p0 == pytest.approx(1.0, abs=1e-10)
        assert p0 + p1 <= binding_bound(cp) + 1e-9
        p0, p1 = binding_sum(honest_strategy(1, common, cp), common, cp)
        assert p1 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("lam,n,p", [(1, 2, 1), (1, 2, 2), (1, 3, 1)])
    def test_bound_over_strategies(self, lam, n, p):
        cp = CommitmentParams(lam, n, p)
        common = sample_haar(2**n, seed=12)
        strategies = [
            honest_strategy(0, common, cp),
            honest_strategy(1, common, cp),
            optimal_attack(common, cp),
        ] + [random_strategy(common, cp, seed=100 + s) for s in range(20)]
        for strat in strategies:
            p0, p1 = binding_sum(strat, common, cp)
            assert p0 + p1 <= binding_bound(cp) + 1e-9

    def test_matches_dense_povm_oracle(self):
        cp = CommitmentParams(1, 2, 1)
        common = sample_haar(4, seed=13)
        for strat in (random_strategy(common, cp, seed=14), optimal_attack(common, cp)):
            env = strat.initial.shape.dims[-1]
            amps = strat.initial.amplitudes
            for b, expect in zip((0, 1), binding_sum(strat, common, cp)):
                u = strat.unitary(b)
                mat = amps.reshape(4, 4 * env)
                attacked = (mat @ u.T).reshape(-1)
                rho = np.outer(attacked, attacked.conj())
                dense = np.kron(dense_accept_povm(b, common, cp), np.eye(env))
                assert float(np.real(np.trace(dense @ rho))) == pytest.approx(
                    expect, abs=1e-12)

    def test_matches_dense_povm_oracle_at_three_pairs(self):
        # the sender's state is grouped (C_1..C_3, R_1..R_3, E); the dense
        # M_b acts on the interleaved (C_1 R_1 C_2 R_2 C_3 R_3)
        d, p = 2, 3
        cp = CommitmentParams(0, 1, p)
        common = sample_haar(d, seed=21)
        interleave = [axis for i in range(p) for axis in (i, p + i)] + [2 * p]
        for strat in (random_strategy(common, cp, seed=22), optimal_attack(common, cp),
                      honest_strategy(1, common, cp)):
            env = strat.initial.shape.dims[-1]
            mat = strat.initial.amplitudes.reshape(d**p, d**p * env)
            dense_env = [np.kron(dense_accept_povm(b, common, cp), np.eye(env))
                         for b in (0, 1)]
            for b, expect in zip((0, 1), binding_sum(strat, common, cp)):
                attacked = (mat @ strat.unitary(b).T).reshape((d,) * (2 * p) + (env,))
                vec = attacked.transpose(interleave).reshape(-1)
                assert float(np.real(np.vdot(vec, dense_env[b] @ vec))) == pytest.approx(
                    expect, rel=0, abs=1e-14)

    def test_rejects_non_unitary(self):
        cp = CommitmentParams(1, 2, 1)
        common = sample_haar(4, seed=15)
        honest = honest_strategy(0, common, cp)
        with pytest.raises(NotUnitary):
            MaliciousSender(honest.initial, honest.u0 * 0.5, honest.u1)


class TestOptimalAttack:
    @pytest.mark.parametrize("lam,n", [(1, 2), (1, 3), (2, 3), (2, 4)])
    def test_reaches_the_closed_form(self, lam, n):
        # F from linalg.fidelity of the averaged commit register against
        # I/d, which shares no code with the sender's SVD
        cp = CommitmentParams(lam, n, 1)
        for s in range(5):
            common = sample_haar(2**n, seed=16, stream=s)
            F, _ = fidelity_bound_check(lam, n, common)
            p0, p1 = binding_sum(optimal_attack(common, cp), common, cp)
            assert p0 + p1 == pytest.approx(exact.binding_optimum(F), rel=0, abs=1e-14)
            assert p0 == pytest.approx(p1, rel=0, abs=1e-14)
            assert p0 + p1 <= binding_bound(cp) + 1e-9

    @pytest.mark.parametrize("lam,n", [(1, 2), (1, 3)])
    def test_no_random_sender_beats_it(self, lam, n):
        cp = CommitmentParams(lam, n, 1)
        common = sample_haar(2**n, seed=17)
        p0, p1 = binding_sum(optimal_attack(common, cp), common, cp)
        for s in range(20):
            r0, r1 = binding_sum(random_strategy(common, cp, seed=200 + s), common, cp)
            assert r0 + r1 < p0 + p1

    def test_cap_is_checked(self):
        cp = CommitmentParams(1, 2, 2)
        common = sample_haar(4, seed=18)
        with pytest.raises(DimensionOverflow):
            optimal_attack(common, cp, cap=255)
        assert optimal_attack(common, cp, cap=256).initial.dim == 512
