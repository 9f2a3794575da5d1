"""Tests for the keyed phase generators, disentangling identities, hybrid
distances, the rank distinguisher, and the inverse-root overlap bound."""

import functools
import itertools
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from chslab.errors import (
    DimensionOverflow,
    EigsFailed,
    NotPSD,
    ParameterError,
    PreconditionViolated,
)
from chslab import commitment as cm
from chslab import pseudo
from chslab.linalg import DEFAULT_DIM_CAP, RANK_TOL, Operator, RegisterShape, \
    StateVector, _dense_eigh, _psd_eigh, _spectrum, permute_registers, pinv_sqrt, \
    trace_distance
from chslab.pseudo import (
    PrfsInput,
    PrfsKey,
    PrsKey,
    PseudoParams,
    check_perm_split,
    lemma_nice_T_check,
    lemma_prfs_type_check,
    onewayness_quantity,
    prfs_apply,
    prfs_hybrids,
    prs_apply,
    prs_hybrids,
    prs_multikey_hybrids,
    rank_attack,
    _ideal_state,
    _keyed_state,
    _prefix_xor_profile,
    _query_charges,
)
from chslab.rng import stream_rng
from chslab.typespace import (
    DEFAULT_ENUM_CAP,
    PrefixParams,
    TypeVector,
    enumerate_types,
    haar_moment,
    is_l_fold_prefix_collision_free,
    permutation_symmetrizer,
    type_state,
)


def random_state(rng, dim):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(RegisterShape((dim,)), z / np.linalg.norm(z))


class TestPrsApply:
    def test_zero_key_is_identity(self):
        s = random_state(stream_rng(1), 8)
        out = prs_apply(PrsKey((0, 0, 0)), s)
        np.testing.assert_array_equal(out.amplitudes, s.amplitudes)

    def test_plus_to_minus(self):
        plus = StateVector(RegisterShape((2,)), np.array([1, 1]) / np.sqrt(2))
        out = prs_apply(PrsKey((1,)), plus)
        np.testing.assert_allclose(out.amplitudes, np.array([1, -1]) / np.sqrt(2))

    def test_involution(self):
        s = random_state(stream_rng(2), 16)
        k = PrsKey((1, 0, 1))
        np.testing.assert_allclose(prs_apply(k, prs_apply(k, s)).amplitudes,
                                   s.amplitudes, atol=1e-15)

    def test_unitary(self):
        rng = stream_rng(3)
        k = PrsKey.from_int(5, 3)
        a, b = random_state(rng, 8), random_state(rng, 8)
        ka, kb = prs_apply(k, a), prs_apply(k, b)
        assert abs(np.linalg.norm(ka.amplitudes) - 1) < 1e-12
        assert np.vdot(ka.amplitudes, kb.amplitudes) == pytest.approx(
            np.vdot(a.amplitudes, b.amplitudes), abs=1e-12)

    def test_phase_acts_on_leading_bits(self):
        # n=2, lam=1: key bit hits the most significant qubit
        s = StateVector(RegisterShape((4,)), np.array([0, 0, 1, 0], dtype=complex))
        out = prs_apply(PrsKey((1,)), s)  # |10>: leading bit 1 -> sign flip
        np.testing.assert_allclose(out.amplitudes, [0, 0, -1, 0])


class TestPrfsApply:
    def test_all_zero_blocks(self):
        s = random_state(stream_rng(4), 4)
        K = PrfsKey(2, (0,), (0,))
        for bits in ((0,), (1,)):
            out = prfs_apply(K, PrfsInput(bits), s)
            np.testing.assert_array_equal(out.amplitudes, s.amplitudes)

    def test_block_selection(self):
        s = random_state(stream_rng(5), 4)
        K = PrfsKey(2, (0b10,), (0b01,))
        np.testing.assert_allclose(
            prfs_apply(K, PrfsInput((0,)), s).amplitudes,
            prs_apply(PrsKey.from_int(0b10, 2), s).amplitudes)
        np.testing.assert_allclose(
            prfs_apply(K, PrfsInput((1,)), s).amplitudes,
            prs_apply(PrsKey.from_int(0b01, 2), s).amplitudes)

    def test_equal_blocks_collapse(self):
        s = random_state(stream_rng(6), 4)
        K = PrfsKey(2, (0b11,), (0b11,))
        np.testing.assert_array_equal(
            prfs_apply(K, PrfsInput((0,)), s).amplitudes,
            prfs_apply(K, PrfsInput((1,)), s).amplitudes)

    def test_xor_of_blocks(self):
        s = random_state(stream_rng(7), 8)
        K = PrfsKey(3, (0b101, 0b011), (0b110, 0b000))
        out = prfs_apply(K, PrfsInput((1, 0)), s)
        np.testing.assert_allclose(
            out.amplitudes,
            prs_apply(PrsKey.from_int(0b110 ^ 0b011, 3), s).amplitudes)


def dense_key_average_unit(v, sigma, p):
    """Independent oracle: build the full matrices and average over keys."""
    d = 2 ** (p.n + p.m)
    total = len(v)
    flat = lambda w: int(np.ravel_multi_index(w, (d,) * total))
    sv = tuple(v[s] for s in sigma)
    unit = np.zeros((d**total, d**total), dtype=complex)
    unit[flat(v), flat(sv)] = 1.0
    acc = np.zeros_like(unit)
    for key in range(2**p.n):
        diag = np.ones(d**total)
        for idx in range(d**total):
            digits = np.unravel_index(idx, (d,) * total)
            par = 0
            for j in range(p.ell):
                par ^= bin((digits[j] >> p.m) & key).count("1") & 1
            diag[idx] = -1.0 if par else 1.0
        acc += np.diag(diag) @ unit @ np.diag(diag)
    return acc / 2**p.n, unit


class TestPermSplit:
    def test_identity_permutation(self):
        p = PrefixParams(1, 1, 1, 2)
        assert check_perm_split((0b00, 0b10), (0, 1), p)

    def test_swap_across_fold_boundary(self):
        p = PrefixParams(1, 1, 1, 2)
        assert check_perm_split((0b00, 0b10), (1, 0), p)

    def test_swap_inside_fold(self):
        # pairwise XORs of {0,1,2} are 1, 2, 3: distinct 2-bit prefixes
        p = PrefixParams(2, 0, 2, 3)
        v = (0, 1, 2)
        assert is_l_fold_prefix_collision_free(
            TypeVector.from_elements(4, v), p)
        assert check_perm_split(v, (1, 0, 2), p)
        assert check_perm_split(v, (2, 1, 0), p)  # mixes fold and spectator

    def test_matches_dense_oracle(self):
        p = PrefixParams(2, 0, 1, 2)
        for v in [(0, 1), (0, 3), (1, 2)]:
            for sigma in itertools.permutations(range(2)):
                acc, unit = dense_key_average_unit(v, sigma, p)
                expected = unit if set(sigma[:1]) == {0} else np.zeros_like(unit)
                assert np.abs(acc - expected).max() < 1e-12
                assert check_perm_split(v, sigma, p)

    def test_rejects_bad_type(self):
        p = PrefixParams(2, 0, 1, 2)
        with pytest.raises(PreconditionViolated):
            check_perm_split((3, 3), (0, 1), p)

    def test_rejects_non_permutation(self):
        p = PrefixParams(2, 0, 1, 2)
        with pytest.raises(ParameterError):
            check_perm_split((0, 1), (0, 0), p)


class TestNiceTypeLemma:
    def test_explicit_two_element_type(self):
        # prefix 2, no suffix: splitting {0, 1} puts each element on one side
        p = PrefixParams(2, 0, 1, 2)
        T = TypeVector.from_elements(4, (0, 1))
        assert lemma_nice_T_check(T, p) < 1e-12

    def test_rhs_matrix_explicitly(self):
        p = PrefixParams(2, 0, 1, 2)
        T = TypeVector.from_elements(4, (0, 1))
        psi = type_state(T).amplitudes
        first = np.arange(16) // 4  # leading base-4 digit is the phased prefix
        lhs = np.zeros((16, 16), dtype=complex)
        for key in range(4):
            ph = np.array([(-1) ** (bin(f & key).count("1") & 1) for f in first])
            phased = ph * psi
            lhs += np.outer(phased, phased.conj())
        lhs /= 4
        e0, e1 = np.zeros(4, complex), np.zeros(4, complex)
        e0[0], e1[1] = 1.0, 1.0
        rhs = 0.5 * (np.outer(np.kron(e0, e1), np.kron(e0, e1).conj())
                     + np.outer(np.kron(e1, e0), np.kron(e1, e0).conj()))
        assert np.abs(lhs - rhs).max() < 1e-12
        assert lemma_nice_T_check(T, p) < 1e-12

    def test_full_fold_no_spectators(self):
        p = PrefixParams(2, 0, 2, 2)
        T = TypeVector.from_elements(4, (0, 1))
        assert lemma_nice_T_check(T, p) < 1e-12

    def test_refuses_bad_type(self):
        p = PrefixParams(1, 1, 1, 2)
        with pytest.raises(PreconditionViolated):
            lemma_nice_T_check(TypeVector.from_elements(4, (0, 1)), p)

    @pytest.mark.parametrize("n,m,ell,total", [
        (2, 0, 1, 2), (2, 0, 1, 3), (2, 1, 1, 2), (2, 1, 1, 3),
    ])
    def test_all_good_types(self, n, m, ell, total):
        d = 2 ** (n + m)
        p = PrefixParams(n, m, ell, total)
        count = 0
        for T in enumerate_types(d, total):
            if not is_l_fold_prefix_collision_free(T, p):
                continue
            assert lemma_nice_T_check(T, p) < 1e-12
            count += 1
        assert count > 0


class TestPrfsTypeLemma:
    def test_single_query_degenerates(self):
        p = PrefixParams(2, 0, 1, 2)
        T = TypeVector.from_elements(4, (0, 1))
        res = lemma_prfs_type_check(T, [(0,)], (1,), p)
        assert res.discrepancy == pytest.approx(lemma_nice_T_check(T, p),
                                                abs=1e-12)

    def test_two_queries_exact_enumeration(self):
        p = PrefixParams(1, 1, 2, 2)
        T = TypeVector.from_elements(4, (0b00, 0b10))
        res = lemma_prfs_type_check(T, [(0,), (1,)], (1, 1), p)
        assert res.exact_keys and res.keys_used == 4
        assert res.discrepancy < 1e-12

    def test_two_queries_wider_blocks(self):
        p = PrefixParams(2, 0, 2, 2)
        T = TypeVector.from_elements(4, (0, 1))
        res = lemma_prfs_type_check(T, [(0,), (1,)], (1, 1), p)
        assert res.exact_keys and res.keys_used == 16
        assert res.discrepancy < 1e-12

    def test_three_blocks_with_spectator(self):
        p = PrefixParams(2, 0, 2, 3)
        T = TypeVector.from_elements(4, (0, 1, 2))
        if is_l_fold_prefix_collision_free(T, p):
            res = lemma_prfs_type_check(T, [(0,), (1,)], (1, 1), p)
            assert res.discrepancy < 1e-12

    def test_rejects_repeated_queries(self):
        p = PrefixParams(1, 1, 2, 2)
        T = TypeVector.from_elements(4, (0b00, 0b10))
        with pytest.raises(PreconditionViolated):
            lemma_prfs_type_check(T, [(0,), (0,)], (1, 1), p)

    def test_dimension_cap(self):
        # two registers of dimension 4: flat dimension 16
        p = PrefixParams(2, 0, 2, 2)
        T = TypeVector.from_elements(4, (0, 1))
        with pytest.raises(DimensionOverflow):
            lemma_prfs_type_check(T, [(0,), (1,)], (1, 1), p, cap=15)
        res = lemma_prfs_type_check(T, [(0,), (1,)], (1, 1), p, cap=16)
        assert res.discrepancy < 1e-12


def generator_phases(apply, d):
    """Diagonal of a diagonal +-1 generator on C^d, read off the uniform state."""
    uniform = StateVector(RegisterShape((d,)), np.ones(d) / np.sqrt(d))
    return (apply(uniform).amplitudes * np.sqrt(d)).real


def key_loop_average(rho, per_key_phases):
    """Independent oracle: conjugate ``rho`` by the keyed diagonal phases one
    explicit key at a time and average.  Each item of ``per_key_phases`` is
    one key's list of per-register phase vectors (ones on unkeyed registers)."""
    acc = np.zeros_like(rho, dtype=complex)
    count = 0
    for registers in per_key_phases:
        ph = functools.reduce(np.kron, registers)
        acc += rho * np.outer(ph, ph)
        count += 1
    return acc / count


def prs_key_phases(lam, d, ell, t, num_keys=1):
    ones = np.ones(d)
    for keys in itertools.product(range(2**lam), repeat=num_keys):
        registers = []
        for key in keys:
            f = generator_phases(lambda s: prs_apply(PrsKey.from_int(key, lam), s), d)
            registers += [f] * ell
        yield registers + [ones] * t


def prfs_key_phases(lam, d, queries, mults, t):
    m = len(queries[0])
    for key in range(2 ** (2 * m * lam)):
        K = PrfsKey.from_int(key, lam, m)
        registers = []
        for x, mult in zip(queries, mults):
            f = generator_phases(lambda s: prfs_apply(K, PrfsInput(x), s), d)
            registers += [f] * mult
        yield registers + [np.ones(d)] * t


def moment_oracle(d, total):
    return permutation_symmetrizer(d, total).entries / comb(d + total - 1, total)


HYBRID_ORACLE_CASES = {
    "single-key lam=n=2": (lambda: prs_hybrids(PseudoParams(2, 2, 1, 1)),
                           4, 2, lambda: prs_key_phases(2, 4, 1, 1)),
    "single-key lam<n": (lambda: prs_hybrids(PseudoParams(1, 2, 2, 1)),
                         4, 3, lambda: prs_key_phases(1, 4, 2, 1)),
    "single-key lam<n n=3": (lambda: prs_hybrids(PseudoParams(2, 3, 1, 1)),
                             8, 2, lambda: prs_key_phases(2, 8, 1, 1)),
    "two keys": (lambda: prs_multikey_hybrids(PseudoParams(2, 2, 1, 0), 2),
                 4, 2, lambda: prs_key_phases(2, 4, 1, 0, num_keys=2)),
    "two keys lam<n": (lambda: prs_multikey_hybrids(PseudoParams(1, 2, 1, 1), 2),
                       4, 3, lambda: prs_key_phases(1, 4, 1, 1, num_keys=2)),
    "distinct queries": (
        lambda: prfs_hybrids(PseudoParams(1, 2, 2, 1, (1, 1)), [(0,), (1,)]),
        4, 3, lambda: prfs_key_phases(1, 4, [(0,), (1,)], (1, 1), 1)),
    "repeated queries": (
        lambda: prfs_hybrids(PseudoParams(1, 2, 2, 1, (1, 1)), [(1,), (1,)]),
        4, 3, lambda: prfs_key_phases(1, 4, [(1,), (1,)], (1, 1), 1)),
    "two-bit queries": (
        lambda: prfs_hybrids(PseudoParams(1, 2, 3, 0, (2, 1)), [(0, 1), (1, 1)]),
        4, 3, lambda: prfs_key_phases(1, 4, [(0, 1), (1, 1)], (2, 1), 0)),
}


class TestKeyLoopOracle:
    """Every exact key average against the explicit exhaustive key loop."""

    @pytest.mark.parametrize("case", list(HYBRID_ORACLE_CASES))
    def test_keyed_state(self, case):
        call, d, total, phases = HYBRID_ORACLE_CASES[case]
        moment = moment_oracle(d, total)
        expected = key_loop_average(moment, phases())
        keyed = call().keyed.entries
        assert np.abs(keyed - expected).max() < 1e-12
        # the key average is not vacuous: it removes coherences
        assert np.abs(expected - moment).max() > 1e-3

    @staticmethod
    def split_mixture(T, mults):
        """Uniform ordered split of a collision-free type into blocks of the
        given sizes plus the rest, as a density matrix."""
        d = T.alphabet_dim
        states = []
        for perm in itertools.permutations(T.elements()):
            vec, start = np.ones(1), 0
            for size in tuple(mults) + (T.total - sum(mults),):
                part = TypeVector.from_elements(d, perm[start:start + size])
                vec = np.kron(vec, type_state(part).amplitudes)
                start += size
            states.append(np.outer(vec, vec.conj()))
        return np.mean(states, axis=0)

    @pytest.mark.parametrize("n,m,ell,elements", [
        (2, 0, 1, (0, 1)), (2, 0, 1, (0, 1, 2)), (2, 1, 1, (0, 2)),
        (2, 1, 1, (1, 2, 4)),
    ])
    def test_nice_type_lemma(self, n, m, ell, elements):
        p = PrefixParams(n, m, ell, len(elements))
        T = TypeVector.from_elements(p.alphabet_dim, elements)
        assert is_l_fold_prefix_collision_free(T, p)
        psi = type_state(T).amplitudes
        # an n-bit key phases the n-bit prefix of each (n+m)-bit element
        lhs = key_loop_average(np.outer(psi, psi.conj()), prs_key_phases(
            n, p.alphabet_dim, ell, len(elements) - ell))
        assert np.abs(lhs - self.split_mixture(T, (ell,))).max() < 1e-12
        assert lemma_nice_T_check(T, p) < 1e-12

    @pytest.mark.parametrize("n,m,elements,queries", [
        (1, 1, (0b00, 0b10), [(0,), (1,)]),
        (2, 0, (0, 1), [(0,), (1,)]),
        (1, 1, (0b00, 0b10), [(0, 1), (1, 1)]),
        (2, 0, (0, 1, 2), [(0,), (1,)]),
    ])
    def test_prfs_type_lemma(self, n, m, elements, queries):
        mults = (1,) * len(queries)
        p = PrefixParams(n, m, len(queries), len(elements))
        T = TypeVector.from_elements(p.alphabet_dim, elements)
        assert is_l_fold_prefix_collision_free(T, p)
        psi = type_state(T).amplitudes
        spectators = len(elements) - len(queries)
        lhs = key_loop_average(np.outer(psi, psi.conj()), prfs_key_phases(
            n, p.alphabet_dim, queries, mults, spectators))
        assert np.abs(lhs - self.split_mixture(T, mults)).max() < 1e-12
        res = lemma_prfs_type_check(T, queries, mults, p)
        assert res.discrepancy < 1e-12
        assert res.exact_keys and res.keys_used == 2 ** (2 * len(queries[0]) * n)


def dense_keyed(d, total, suffix_shift, charges):
    """The dense construction the class-pair scatter replaced: the moment
    times the D x D 0/1 mask of agreeing labels."""
    moment = haar_moment(d, total)
    mask = np.ones((d**total,) * 2, dtype=bool)
    for regs in charges:
        label = _prefix_xor_profile(d, suffix_shift, regs, total)
        mask &= np.equal.outer(label, label)
    return Operator(moment.shape, moment.values * mask)


def dense_ideal(d, groups):
    """The dense construction the nonzero scatter replaced: np.kron of the
    group moments, then the register permutation."""
    entries = np.ones((1, 1))
    order = []
    for regs in groups:
        entries = np.kron(entries, haar_moment(d, len(regs)).values)
        order.extend(regs)
    grouped = Operator(RegisterShape((d,) * len(order)), entries)
    if order == sorted(order):
        return grouped.values
    return permute_registers(grouped, np.argsort(order)).values


def prfs_charges(queries, mults):
    offsets = np.cumsum((0,) + tuple(mults))
    blocks = [range(offsets[j], offsets[j + 1]) for j in range(len(mults))]
    return _query_charges(blocks, [PrfsInput(q) for q in queries])


class TestDenseBuildOracle:
    """The scattered keyed and ideal states equal the dense builds bit for bit."""

    @pytest.mark.parametrize("d,total,shift,charges", [
        (32, 2, 0, [range(1)]),                 # D = 1024, prs lam = n = 5
        (4, 5, 0, [range(2)]),                  # D = 1024, prs lam = n = 2, ell = 2
        (8, 2, 0, [[0], [1]]),                  # two independent keys
        (4, 3, 1, [range(2)]),                  # a key shorter than the state
        (8, 3, 1, prfs_charges([(0,), (1,)], (1, 1))),
        (4, 4, 1, prfs_charges([(0, 1), (1, 1)], (2, 1))),
        (4, 4, 0, prfs_charges([(0, 1), (1, 0), (0, 1)], (1, 1, 1))),
        (3, 3, 0, []),                          # no key: the moment itself
        (16, 3, 0, [range(1)]),                 # D = 4096, prs lam = n = 4, t = 2
    ])
    def test_keyed_state(self, d, total, shift, charges):
        keyed = _keyed_state(d, total, shift, charges, DEFAULT_DIM_CAP, DEFAULT_ENUM_CAP)
        assert keyed.real
        assert np.array_equal(keyed.values, dense_keyed(d, total, shift, charges).values)

    @pytest.mark.parametrize("d,groups", [
        (32, [[0], [1]]),                       # D = 1024
        (4, [[0, 1], [2, 3, 4]]),               # D = 1024
        (3, [[0], [1, 2], [3]]),                # three factors, left to right
        (4, [[0, 2], [1], [3]]),                # repeated queries: permuted
        (2, [[1, 3], [0, 4], [2]]),
        (5, [[0, 1]]),
        (16, [[0], [1, 2]]),                    # D = 4096
    ])
    def test_ideal_state(self, d, groups):
        ideal = _ideal_state(d, groups, DEFAULT_DIM_CAP, DEFAULT_ENUM_CAP)
        assert ideal.real
        assert np.array_equal(ideal.values, dense_ideal(d, groups))

    def test_repeated_query_hybrid_uses_the_permuted_ideal(self):
        params = PseudoParams(1, 2, 3, 1, (1, 1, 1))
        res = prfs_hybrids(params, [(0,), (1,), (0,)])
        assert np.array_equal(res.ideal.values, dense_ideal(4, [[0, 2], [1], [3]]))
        assert np.array_equal(res.keyed.values, dense_keyed(
            4, 4, 1, prfs_charges([(0,), (1,), (0,)], (1, 1, 1))).values)

    def test_peaks_are_the_arrays_held(self):
        def peak(build):
            tracemalloc.start()
            try:
                build()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # at D = 1024 one float64 matrix is 8 MiB; both states are block
        # operators, holding their 2016 and 1024 nonzeros and D-long index
        # arrays, and neither makes a D x D matrix, mask or Kronecker product
        mib = 1024**2
        assert peak(lambda: _keyed_state(32, 2, 0, [range(1)], DEFAULT_DIM_CAP,
                                         DEFAULT_ENUM_CAP)) < mib
        assert peak(lambda: _ideal_state(32, [[0], [1]], DEFAULT_DIM_CAP,
                                         DEFAULT_ENUM_CAP)) < mib


class TestBlockMemory:
    """The exact path above D = 64 holds no D x D array: each call's traced
    peak stays below one float64 D x D matrix."""

    @pytest.mark.parametrize("call,dim", [
        pytest.param(lambda: prs_hybrids(PseudoParams(5, 5, 1, 1)), 1024, id="prs-5511"),
        pytest.param(lambda: prs_hybrids(PseudoParams(2, 2, 2, 3)), 1024, id="prs-2223"),
        pytest.param(lambda: prs_hybrids(PseudoParams(4, 4, 1, 2)), 4096, id="prs-4412"),
        pytest.param(lambda: prs_multikey_hybrids(PseudoParams(3, 3, 1, 1), 2), 512,
                     id="multikey"),
        pytest.param(lambda: prfs_hybrids(PseudoParams(2, 3, 2, 1, (1, 1)), [(0,), (1,)]),
                     512, id="prfs"),
        pytest.param(lambda: cm.hiding_distance(cm.CommitmentParams(2, 3, 2, 1)), 512,
                     id="hiding"),
        pytest.param(lambda: rank_attack(PseudoParams(3, 3, 1, 2)), 512, id="rank-attack"),
    ])
    def test_peak_below_one_dense_matrix(self, call, dim):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * dim**2

    def test_prs_hybrids_at_4096(self):
        res = prs_hybrids(PseudoParams(4, 4, 1, 2))
        assert res.keyed.dim == 4096
        assert res.td == 0.09803921568627452


class TestPrsHybrids:
    def test_no_generated_copies(self):
        res = prs_hybrids(PseudoParams(2, 2, 0, 2))
        assert res.td == 0.0

    def test_single_copy_no_spectators_is_exact(self):
        # one generated copy alone is already the maximally mixed moment
        res = prs_hybrids(PseudoParams(2, 2, 1, 0))
        assert res.td == pytest.approx(0.0, abs=1e-14)

    def test_frozen_values_and_decay(self):
        # block-diagonal pinch of the two-copy moment: the difference from
        # the product of one-copy moments has 1-norm 2(d-1)/(d(d+1))
        res2 = prs_hybrids(PseudoParams(2, 2, 1, 1))
        assert res2.td == pytest.approx(3 / 20, abs=1e-12)
        res3 = prs_hybrids(PseudoParams(3, 3, 1, 1))
        assert res3.td == pytest.approx(7 / 72, abs=1e-12)
        assert res3.td < res2.td
        assert res2.bound == (1 + 1) ** 2 / 4

    @pytest.mark.parametrize("n,t,num,den", [(5, 1, 31, 1056), (4, 2, 5, 51)])
    def test_full_key_single_copy_closed_form(self, n, t, num, den):
        # exact closed form at lam = n, ell = 1, summed over m, the number
        # of shared copies equal to the generated copy's value:
        # td = 1/2 sum_m d C(d+t-m-2, t-m) |(m+1)/(d C(d+t,t)) - 1/(d C(d+t-1,t))|
        d = 2**n
        td = Fraction(1, 2) * sum(
            d * comb(d + t - m - 2, t - m)
            * abs(Fraction(m + 1, d * comb(d + t, t)) - Fraction(1, d * comb(d + t - 1, t)))
            for m in range(t + 1))
        assert td == Fraction(num, den)
        assert prs_hybrids(PseudoParams(n, n, 1, t)).td == pytest.approx(float(td),
                                                                       abs=1e-12)

    def test_diagonal_difference_is_solved_one_by_one(self, monkeypatch):
        # at lam = n = 5, ell = t = 1 the keyed state and the ideal are both
        # diagonal (D = 1024), so every component of the difference is 1x1
        dims = []
        solver = np.linalg.eigvalsh

        def record(m, *args, **kwargs):
            dims.append(np.shape(m)[-1])
            return solver(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", record)
        prs_hybrids(PseudoParams(5, 5, 1, 1))
        assert dims == [1]

    def test_keyed_state_contract(self):
        res = prs_hybrids(PseudoParams(2, 2, 1, 1))
        rho = res.keyed.entries
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_partial_key_prefix(self):
        # lam < n exercises the proper-prefix path
        res = prs_hybrids(PseudoParams(1, 2, 1, 1))
        assert 0.0 < res.td <= 1.0

    def test_requires_n_at_least_lam(self):
        with pytest.raises(ParameterError):
            prs_hybrids(PseudoParams(3, 2, 1, 0))


class TestMultiKeyHybrids:
    def test_single_key_reduction(self):
        params = PseudoParams(2, 2, 1, 1)
        multi = prs_multikey_hybrids(params, 1)
        single = prs_hybrids(params)
        assert multi.td == pytest.approx(single.td, abs=1e-12)

    def test_two_keys_no_spectators(self):
        res = prs_multikey_hybrids(PseudoParams(2, 2, 1, 0), 2)
        assert 0.0 < res.td <= 1.0
        assert res.bound == 2 * (2 + 0) ** 2 / 4

    def test_nonincreasing_in_key_length(self):
        tds = [prs_multikey_hybrids(PseudoParams(lam, lam, 1, 0), 2).td
               for lam in (2, 3)]
        assert tds[1] <= tds[0] + 1e-12


class TestPrfsHybrids:
    def test_single_query_matches_single_key(self):
        pq = prfs_hybrids(PseudoParams(2, 3, 1, 1, (1,)), [(0,)])
        pk = prs_hybrids(PseudoParams(2, 3, 1, 1))
        assert pq.td == pytest.approx(pk.td, abs=1e-10)

    def test_zero_copies(self):
        res = prfs_hybrids(PseudoParams(2, 2, 0, 2, (0, 0)), [(0,), (1,)])
        assert res.td == 0.0

    def test_two_distinct_queries_exact(self):
        res = prfs_hybrids(PseudoParams(2, 2, 2, 0, (1, 1)), [(0,), (1,)])
        assert res.exact_keys and res.keys_used == 16
        assert 0.0 < res.td <= 1.0

    def test_million_key_space_is_exact(self):
        # 2^20 keys: ten-bit queries differing in bit 0 only, so blocks
        # k0[0] and k1[0] act as two independent one-bit keys
        res = prfs_hybrids(PseudoParams(1, 1, 2, 1, (1, 1)),
                           [(0,) * 10, (1,) + (0,) * 9])
        assert res.exact_keys and res.keys_used == 2**20
        two_keys = prs_multikey_hybrids(PseudoParams(1, 1, 1, 1), 2)
        assert two_keys.td == pytest.approx(0.25, abs=1e-12)
        assert res.td == pytest.approx(two_keys.td, abs=1e-12)

    def test_repeated_queries_share_ideal_state(self):
        # the ideal side for two equal queries is the two-copy moment, so the
        # keyed side (identical phases on both copies) matches it more closely
        # than it matches a product of independent moments
        same = prfs_hybrids(PseudoParams(2, 2, 2, 0, (1, 1)), [(1,), (1,)])
        distinct = prfs_hybrids(PseudoParams(2, 2, 2, 0, (1, 1)), [(0,), (1,)])
        assert same.td < distinct.td + 1e-12


class TestRankAttack:
    def test_rank_formula_and_acceptance(self):
        res = rank_attack(PseudoParams(2, 2, 1, 2))
        assert res.rank1 == comb(4 + 1 - 1, 1) * comb(4 + 2 - 1, 2) == 40
        assert res.accept_pseudo == pytest.approx(1.0, abs=1e-9)
        assert res.accept_haar <= res.rank0 / res.rank1 + 1e-9
        assert res.ratio_bound == pytest.approx(
            4 / comb(3, 1) * (1 + 2 / 4), abs=1e-12)

    def test_solver_failure_becomes_eigs_failed(self, monkeypatch):
        def fail(m, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigsFailed):
            rank_attack(PseudoParams(2, 2, 1, 1))

    def test_negative_keyed_eigenvalue_raises_not_psd(self, monkeypatch):
        solve = np.linalg.eigh
        def one_negative(m, *args, **kwargs):
            vals, vecs = solve(m, *args, **kwargs)
            return np.concatenate([[-1e-6], vals[1:]]), vecs
        monkeypatch.setattr(np.linalg, "eigh", one_negative)
        with pytest.raises(NotPSD):
            rank_attack(PseudoParams(2, 2, 1, 1))

    def test_custom_unitary_family_matches_default(self):
        # oracle: the explicit keyed family average sum_k W_k M W_k^dag / 2^lam,
        # W_k = U_k^(x ell) (x) 1 on the t shared copies, M the Haar moment
        params = PseudoParams(2, 2, 1, 1)
        lam, n, ell, t = params.lam, params.n, params.ell, params.t
        d = 2**n
        idx = np.arange(d)
        M = haar_moment(d, ell + t).entries
        oracle = np.zeros_like(M)
        for key in range(2**lam):
            par = np.zeros(d, dtype=int)
            for bit in range(lam):
                par ^= ((idx >> (lam - 1 - bit)) & 1) * ((key >> (lam - 1 - bit)) & 1)
            w = np.ones((1, 1), dtype=np.complex128)
            for _ in range(ell):
                w = np.kron(w, np.diag(1.0 - 2.0 * par))
            w = np.kron(w, np.eye(d**t))
            oracle += w @ M @ w.conj().T
        oracle /= 2**lam
        keyed = _keyed_state(d, ell + t, n - lam, [range(ell)], DEFAULT_DIM_CAP,
                             DEFAULT_ENUM_CAP).entries
        np.testing.assert_allclose(keyed, oracle, rtol=0, atol=1e-12)
        assert np.linalg.matrix_rank(oracle) == rank_attack(params).rank0

    @pytest.mark.parametrize("lam,n,ell,t", [(1, 2, 1, 1), (2, 2, 1, 2), (3, 3, 1, 2)])
    def test_matches_complex_eigh_einsum_oracle(self, lam, n, ell, t):
        # oracle: the complex Hermitian eigh of the keyed state, and Tr(P rho1)
        # as the three-operand contraction over its support basis, with the
        # ideal state built as the product of the two Haar moments
        d = 2**n
        rho0 = _keyed_state(d, ell + t, n - lam, [range(ell)], DEFAULT_DIM_CAP,
                            DEFAULT_ENUM_CAP).entries
        rho1 = np.kron(haar_moment(d, ell).entries, haar_moment(d, t).entries)
        assert rho0.dtype == np.complex128
        vals, vecs = np.linalg.eigh(rho0)
        support = vals > 1e-8 * vals.max()
        basis = vecs[:, support]
        accept_haar = np.real(np.einsum("ai,ab,bi->", basis.conj(), rho1, basis))
        vals1 = np.abs(np.linalg.eigvalsh(rho1))
        res = rank_attack(PseudoParams(lam, n, ell, t))
        assert res.rank0 == int(support.sum())
        assert res.rank1 == int((vals1 > 1e-8 * vals1.max()).sum())
        assert res.accept_pseudo == pytest.approx(vals[support].sum(), abs=1e-12)
        assert res.accept_haar == pytest.approx(min(accept_haar, 1.0), abs=1e-12)

    @pytest.mark.parametrize("lam,n,ell,t", [(1, 2, 1, 1), (2, 2, 2, 2), (3, 3, 1, 2)])
    def test_matches_dense_eigenvector_oracle(self, lam, n, ell, t):
        # oracle: the support basis as columns of the dense eigenvector
        # matrix, and Tr(P rho1) as one vdot against the dense D x D product
        d, total = 2**n, ell + t
        rho0 = _keyed_state(d, total, n - lam, [range(ell)], DEFAULT_DIM_CAP,
                            DEFAULT_ENUM_CAP).values
        ideal = _ideal_state(d, [range(ell), range(ell, total)], DEFAULT_DIM_CAP,
                             DEFAULT_ENUM_CAP).values
        vals, vecs = _dense_eigh(_psd_eigh(rho0))
        support = vals > RANK_TOL * vals.max()
        basis = vecs[:, support]
        accept_haar = float(np.clip(np.real(np.vdot(basis, ideal @ basis)), 0.0, 1.0))
        res = rank_attack(PseudoParams(lam, n, ell, t))
        assert res.rank0 == int(support.sum())
        assert res.accept_pseudo == float(vals[support].sum())
        assert res.accept_haar == pytest.approx(accept_haar, abs=1e-12)

    def test_spectral_step_allocates_no_dense_matrix(self, monkeypatch):
        # after the keyed and ideal states are built, the rest of the attack
        # holds per-block arrays only: less than one D x D float64 matrix
        # (2 MiB at D = 512), where the dense eigenvector matrix alone is one
        marks = []
        build = pseudo._ideal_state

        def built(*args):
            out = build(*args)
            tracemalloc.reset_peak()
            marks.append(tracemalloc.get_traced_memory()[0])
            return out

        monkeypatch.setattr(pseudo, "_ideal_state", built)
        tracemalloc.start()
        try:
            res = rank_attack(PseudoParams(3, 3, 1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(marks) == 1 and res.rank0 == 288
        assert peak - marks[0] < 512 * 512 * 8

    def test_block_solver_failure_becomes_eigs_failed(self, monkeypatch):
        # D = 512: the keyed state is solved as stacks of blocks
        shapes = []

        def fail(m, *args, **kwargs):
            shapes.append(np.shape(m))
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigsFailed):
            rank_attack(PseudoParams(3, 3, 1, 2))
        assert len(shapes) == 1 and len(shapes[0]) == 3

    def test_block_negative_eigenvalue_raises_not_psd(self, monkeypatch):
        solve = np.linalg.eigh
        shapes = []

        def one_negative(m, *args, **kwargs):
            shapes.append(np.shape(m))
            vals, vecs = solve(m, *args, **kwargs)
            vals = vals.copy()
            vals.flat[0] = -1e-6
            return vals, vecs
        monkeypatch.setattr(np.linalg, "eigh", one_negative)
        with pytest.raises(NotPSD):
            rank_attack(PseudoParams(3, 3, 1, 2))
        assert shapes and all(len(shape) == 3 for shape in shapes)

    def test_ideal_acceptance_is_a_probability(self):
        # the support-basis contraction lands just above 1 in floating point
        res = rank_attack(PseudoParams(3, 3, 1, 2))
        assert 0.0 <= res.accept_haar <= 1.0

    def test_dimension_cap(self):
        # (ell + t) = 2 registers of dimension 4: 16 against a cap of 15
        with pytest.raises(DimensionOverflow):
            rank_attack(PseudoParams(1, 2, 1, 1), cap=15)
        assert rank_attack(PseudoParams(1, 2, 1, 1), cap=16).accept_pseudo > 0.0

    def test_larger_point_keeps_inequality(self):
        res = rank_attack(PseudoParams(3, 3, 1, 1))
        assert res.accept_pseudo == pytest.approx(1.0, abs=1e-9)
        assert res.accept_haar <= res.rank0 / res.rank1 + 1e-9


def onewayness_oracle(n, m):
    """Independent oracle: every phased moment built and overlapped with the
    inverse square root of their sum, one x at a time."""
    d, total = 2**n, m + 1
    moment = haar_moment(d, total).entries
    first = np.arange(d**total) // d ** (total - 1)
    rhos = []
    for x in range(d):
        ph = np.array([(-1.0) ** bin(f & x).count("1") for f in first])
        rhos.append(moment * np.outer(ph, ph))
    sigma = Operator(RegisterShape((d,) * total), sum(rhos))
    s = pinv_sqrt(sigma, 1e-10).entries
    return sum(float(np.real(np.trace(r @ s @ r @ s))) for r in rhos) / d


class TestBlockSpectralStep:
    """The exact-hybrids distances at D = 1024 through the block spectral
    step, against the dense difference a - b."""

    @pytest.mark.parametrize("lam,n,ell,t", [(5, 5, 1, 1), (2, 2, 2, 3)])
    def test_trace_distance_matches_dense_difference(self, lam, n, ell, t):
        res = prs_hybrids(PseudoParams(lam, n, ell, t))
        keyed, ideal = res.keyed, res.ideal
        assert keyed.dim == 1024 and keyed.real and ideal.real
        oracle = 0.5 * float(np.abs(_spectrum(keyed.values - ideal.values)).sum())
        assert res.td == trace_distance(keyed, ideal) == oracle
        assert res.td == pytest.approx(
            0.5 * np.abs(np.linalg.eigvalsh(keyed.values - ideal.values)).sum(), abs=1e-12)

    def test_trace_distance_allocates_no_dense_matrix(self):
        res = prs_hybrids(PseudoParams(5, 5, 1, 1))
        tracemalloc.start()
        try:
            trace_distance(res.keyed, res.ideal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8

    def test_pinv_sqrt_matches_the_dense_product(self):
        # the mixture of onewayness_quantity(3, 2), D = 512, solved in blocks
        d = 8
        sigma = _keyed_state(d, 3, 0, [(0,)], DEFAULT_DIM_CAP, DEFAULT_ENUM_CAP)
        m = Operator(sigma.shape, d * sigma.values)
        vals, vecs = _dense_eigh(_psd_eigh(m.values))
        inv = np.where(vals > 1e-10, 1.0 / np.sqrt(np.where(vals > 1e-10, vals, 1.0)), 0.0)
        np.testing.assert_allclose(pinv_sqrt(m).values, (vecs * inv) @ vecs.T, rtol=0,
                                   atol=1e-12)


class TestOnewayness:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 0), (1, 2), (2, 2),
                                     (3, 1), (1, 3)])
    def test_matches_per_phase_oracle(self, n, m):
        value, bound = onewayness_quantity(n, m)
        assert value == pytest.approx(onewayness_oracle(n, m), abs=1e-12)
        assert bound == (m + 1) / 2**n

    def test_dimension_cap(self):
        # 4^2 = 16 flat dimension against a cap of 15
        with pytest.raises(DimensionOverflow):
            onewayness_quantity(2, 1, cap=15)
        assert onewayness_quantity(2, 1, cap=16)[0] > 0.0

    def test_bound_points(self):
        value, bound = onewayness_quantity(1, 1)
        assert bound == 1.0 and value <= bound + 1e-9
        value, bound = onewayness_quantity(2, 1)
        assert bound == 0.5 and value <= bound + 1e-9

    def test_no_spectators_is_tight(self):
        value, bound = onewayness_quantity(2, 0)
        assert bound == 0.25
        assert value == pytest.approx(0.25, abs=1e-12)
