"""Tests for type combinatorics, symmetric projectors, and Haar moments."""

import hashlib
import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from chslab.errors import (
    DimensionOverflow,
    EnumerationTooLarge,
    NotCollisionFree,
    ParameterError,
)
from chslab.rng import stream_rng
from chslab.typespace import (
    PrefixParams,
    TypeVector,
    arrangements,
    enumerate_types,
    haar_moment,
    haar_states_block,
    is_l_fold_prefix_collision_free,
    permutation_symmetrizer,
    prob_good_type,
    sample_haar,
    sym_projector,
    type_bipartition,
    type_state,
    _flat_index,
    _fold_good,
    _type_classes,
    _urn_draws,
    _urn_outcomes,
)


def fold_good_oracle(elements, m, ell):
    """Independent oracle: one Python set of prefix XORs per type."""
    prefixes = [e >> m for e in elements]
    seen = set()
    for combo in itertools.combinations(range(len(elements)), ell):
        x = 0
        for i in combo:
            x ^= prefixes[i]
        if x in seen:
            return False
        seen.add(x)
    return True


def fold_good_sorted(rows, m, ell):
    """The sort-based predicate the pairwise scan replaced: every row's
    ell-subset prefix XORs written into one (N, C(t, ell)) array, sorted
    per row and checked for repeats."""
    prefixes = rows >> m
    subsets = list(itertools.combinations(range(rows.shape[1]), ell))
    folds = np.empty((rows.shape[0], len(subsets)), dtype=rows.dtype)
    for j, combo in enumerate(subsets):
        folds[:, j] = np.bitwise_xor.reduce(prefixes[:, combo], axis=1)
    folds.sort(axis=1)
    return (np.diff(folds, axis=1) != 0).all(axis=1)


def dense_class_matrix(d, t):
    """The dense construction the class scatter replaced: 1/|class| wherever
    the sorted-digit labels of row and column are equal, from a D x D
    comparison and a D x D division."""
    dim = d**t
    powers = d ** np.arange(t, dtype=np.int64)
    digits = np.sort(np.arange(dim, dtype=np.int64)[:, None] // powers % d, axis=1)
    label = digits @ powers
    class_size = np.bincount(label, minlength=dim)[label]
    return np.equal.outer(label, label) / class_size[:, None]


def good_count_by_type_walk(p):
    """The exact branch the prefix-set count replaced: every type of total
    t through the fold predicate."""
    rows = np.array(list(itertools.combinations_with_replacement(
        range(p.alphabet_dim), p.t)), dtype=np.int64).reshape(-1, p.t)
    return int(_fold_good(rows, p.m, p.ell).sum()), len(rows)


class TestTypeVector:
    def test_counts_and_total(self):
        T = TypeVector.from_elements(4, (1, 1, 3))
        assert T.counts == {1: 2, 3: 1}
        assert T.total == 3
        assert T.elements() == (1, 1, 3)
        assert not T.collision_free()
        assert TypeVector.from_elements(4, (0, 2)).collision_free()

    def test_validation(self):
        with pytest.raises(ParameterError):
            TypeVector(2, ((3, 1),))
        with pytest.raises(ParameterError):
            TypeVector(2, ((0, 0),))


class TestEnumerateTypes:
    @pytest.mark.parametrize("d,t,count", [(2, 1, 2), (2, 2, 3), (4, 2, 10)])
    def test_counts(self, d, t, count):
        types = enumerate_types(d, t)
        assert len(types) == count == comb(d + t - 1, t)
        assert len(set(types)) == count

    def test_lexicographic_and_deterministic(self):
        types = enumerate_types(3, 2)
        elems = [T.elements() for T in types]
        assert elems == sorted(elems)
        assert elems == [T.elements() for T in enumerate_types(3, 2)]

    def test_cap(self):
        with pytest.raises(EnumerationTooLarge):
            enumerate_types(100, 10, enum_cap=1000)


@pytest.mark.parametrize("build", [
    lambda cap: type_state(TypeVector.from_elements(4, (0, 1)), cap),
    lambda cap: sym_projector(4, 2, cap),
    lambda cap: haar_moment(4, 2, cap),
    lambda cap: permutation_symmetrizer(4, 2, cap),
], ids=["type_state", "sym_projector", "haar_moment", "permutation_symmetrizer"])
def test_dimension_cap(build):
    # two registers of dimension 4: flat dimension 16
    with pytest.raises(DimensionOverflow):
        build(15)
    assert build(16).dim == 16


class TestTypeState:
    def test_singleton(self):
        psi = type_state(TypeVector.from_elements(3, (2,)))
        np.testing.assert_allclose(psi.amplitudes, [0, 0, 1])

    def test_two_distinct(self):
        psi = type_state(TypeVector.from_elements(2, (0, 1)))
        np.testing.assert_allclose(psi.amplitudes,
                                   [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])

    def test_repeated(self):
        psi = type_state(TypeVector.from_elements(2, (0, 0)))
        np.testing.assert_allclose(psi.amplitudes, [1, 0, 0, 0])

    @pytest.mark.parametrize("d,t", [(2, 2), (2, 3), (4, 2)])
    def test_orthonormal_family(self, d, t):
        states = [type_state(T).amplitudes for T in enumerate_types(d, t)]
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert np.abs(gram - np.eye(len(states))).max() < 1e-10

    def test_arrangement_count(self):
        T = TypeVector.from_elements(3, (0, 0, 1))
        assert len(list(arrangements(T.elements()))) == 3


class TestSymProjector:
    def test_single_copy_is_identity(self):
        np.testing.assert_allclose(sym_projector(2, 1).entries, np.eye(2),
                                   atol=1e-12)

    def test_rank_and_fixed_vectors(self):
        proj = sym_projector(2, 2)
        for vec in (np.array([1, 0, 0, 0]), np.array([0, 0, 0, 1]),
                    np.array([0, 1, 1, 0]) / np.sqrt(2)):
            np.testing.assert_allclose(proj.entries @ vec, vec, atol=1e-12)
        assert np.linalg.matrix_rank(proj.entries) == 3

    def test_idempotent(self):
        proj = sym_projector(2, 2)
        assert np.abs(proj.entries @ proj.entries - proj.entries).max() < 1e-12

    @pytest.mark.parametrize("d,t", [(2, 2), (2, 3), (3, 2), (4, 2)])
    def test_matches_permutation_average(self, d, t):
        assert np.abs(sym_projector(d, t).entries
                      - permutation_symmetrizer(d, t).entries).max() < 1e-12


class TestTypeClasses:
    @pytest.mark.parametrize("d,t", [(2, 1), (3, 3), (4, 2), (2, 4)])
    def test_one_class_per_type(self, d, t):
        # oracle: the flat indices of each type's arrangements
        expected = sorted(tuple(sorted(_flat_index(a, d) for a in arrangements(T.elements())))
                          for T in enumerate_types(d, t))
        classes = _type_classes(d, t, 10**6, 10**6)
        assert sorted(tuple(row) for idx in classes for row in idx.tolist()) == expected
        sizes = [idx.shape[1] for idx in classes]
        assert sizes == sorted(set(sizes))

    @pytest.mark.parametrize("d,t", [(4, 5), (8, 3), (3, 4), (2, 1), (32, 2), (3, 0)])
    def test_scatter_is_the_dense_build_bit_for_bit(self, d, t):
        dense = dense_class_matrix(d, t)
        assert np.array_equal(sym_projector(d, t).values, dense)
        dense /= comb(d + t - 1, t)
        assert np.array_equal(haar_moment(d, t).values, dense)

    def test_moment_nonzeros_are_the_class_pairs(self):
        # 32 singletons and 496 pairs: 32 + 496 * 4 nonzero entries
        assert np.count_nonzero(haar_moment(32, 2).values) == 2016


class TestHaarMoment:
    def test_first_moment(self):
        np.testing.assert_allclose(haar_moment(2, 1).entries, np.eye(2) / 2,
                                   atol=1e-12)

    @pytest.mark.parametrize("d,t", [(2, 2), (2, 3), (4, 2)])
    def test_equals_type_average(self, d, t):
        types = enumerate_types(d, t)
        avg = np.zeros((d**t, d**t), dtype=complex)
        for T in types:
            psi = type_state(T).amplitudes
            avg += np.outer(psi, psi.conj())
        avg /= len(types)
        assert np.abs(haar_moment(d, t).entries - avg).max() < 1e-12

    @pytest.mark.parametrize("d,t", [(2, 3), (4, 2), (8, 3), (32, 2)])
    def test_bit_identical_to_projector_over_count(self, d, t):
        # oracle: the projector's complex entries divided by the type count
        assert np.array_equal(haar_moment(d, t).entries,
                              sym_projector(d, t).entries / comb(d + t - 1, t))

    def test_monte_carlo_agreement(self):
        rng = stream_rng(13)
        block = haar_states_block(2, 100000, rng)
        lifted = np.einsum("na,nb->nab", block, block).reshape(len(block), -1)
        mean = np.einsum("na,nb->ab", lifted, lifted.conj()) / len(block)
        assert np.abs(mean - haar_moment(2, 2).entries).max() < 5e-3


class TestSampleHaar:
    def test_normalised_and_deterministic(self):
        a = sample_haar(8, seed=100)
        b = sample_haar(8, seed=100)
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_adjacent_seeds_differ(self):
        a = sample_haar(8, seed=256)
        b = sample_haar(8, seed=257)
        assert abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2 < 0.999

    def test_block_pinned(self):
        # the draws as normalised by float64 multiplies and adds, which give
        # these bytes whatever CPU features numpy dispatches to; every byte
        # must stay the same
        block = haar_states_block(4, 20000, np.random.Generator(np.random.Philox(7)))
        assert block.dtype == np.complex128 and block.shape == (20000, 4)
        assert hashlib.sha256(block.tobytes()).hexdigest() == (
            "07f45122497d9e6ad771b708f3f97b9e9907e7577ac43c2f3d4078168e8a78ac")

    def test_mean_overlap(self):
        block = haar_states_block(4, 100000, stream_rng(14))
        est = float(np.mean(np.abs(block[:, 0]) ** 2))
        assert est == pytest.approx(0.25, abs=5e-3)


class TestPrefixCollisionFree:
    def test_examples(self):
        p = PrefixParams(1, 1, 1, 2)
        assert is_l_fold_prefix_collision_free(
            TypeVector.from_elements(4, (0b00, 0b10)), p)
        assert not is_l_fold_prefix_collision_free(
            TypeVector.from_elements(4, (0b00, 0b01)), p)
        p2 = PrefixParams(2, 1, 2, 4)
        assert not is_l_fold_prefix_collision_free(
            TypeVector.from_elements(8, (0b000, 0b001, 0b010, 0b011)), p2)

    def test_repeated_element_fails_below_full_fold(self):
        p = PrefixParams(2, 0, 1, 2)
        assert not is_l_fold_prefix_collision_free(
            TypeVector.from_elements(4, (3, 3)), p)

    def test_alphabet_mismatch(self):
        with pytest.raises(ParameterError):
            is_l_fold_prefix_collision_free(
                TypeVector.from_elements(8, (0, 1)), PrefixParams(1, 1, 1, 2))

    def test_enumeration_cap(self):
        T = TypeVector.from_elements(2 ** 4, tuple(range(10)))
        with pytest.raises(EnumerationTooLarge):
            is_l_fold_prefix_collision_free(T, PrefixParams(2, 2, 5, 10),
                                            enum_cap=100)

    def test_fold_implies_lower_folds(self):
        # for t > 2 ell, ell-fold implies i-fold for i <= ell
        for n, m, ell, total in [(2, 0, 2, 5), (2, 1, 2, 5), (3, 0, 2, 5)]:
            d = 2 ** (n + m)
            for T in enumerate_types(d, total):
                p_hi = PrefixParams(n, m, ell, total)
                if not is_l_fold_prefix_collision_free(T, p_hi):
                    continue
                for i in range(1, ell):
                    assert is_l_fold_prefix_collision_free(
                        T, PrefixParams(n, m, i, total))


class TestFoldPredicate:
    @pytest.mark.parametrize("n,m,ell,total", [
        (2, 0, 1, 3), (2, 1, 2, 4), (3, 0, 2, 3), (2, 0, 1, 4), (1, 1, 1, 3),
        (2, 0, 3, 3)])
    def test_matches_set_oracle_on_every_type(self, n, m, ell, total):
        p = PrefixParams(n, m, ell, total)
        types = enumerate_types(p.alphabet_dim, total)
        rows = np.array([T.elements() for T in types], dtype=np.int64)
        expected = [fold_good_oracle(T.elements(), m, ell) for T in types]
        assert _fold_good(rows, m, ell).tolist() == expected
        assert [is_l_fold_prefix_collision_free(T, p) for T in types] == expected
        assert prob_good_type(p).exact == Fraction(sum(expected), len(types))

    @pytest.mark.parametrize("t,ell,bits,m", [(4, 2, 6, 1), (6, 3, 7, 2),
                                               (8, 2, 9, 1), (8, 4, 10, 3)])
    def test_matches_sorted_folds_on_random_rows(self, t, ell, bits, m):
        rows = stream_rng(43, t * 10 + ell).integers(0, 2**bits, size=(4096, t))
        got = _fold_good(rows, m, ell)
        assert 0 < got.sum() < len(got)  # both verdicts occur
        np.testing.assert_array_equal(got, fold_good_sorted(rows, m, ell))

    def test_row_order_is_irrelevant(self):
        rows = np.array([[0, 1, 2, 5], [3, 3, 6, 1], [7, 4, 2, 0]], dtype=np.int64)
        assert (_fold_good(rows, 1, 2) == _fold_good(rows[:, ::-1], 1, 2)).all()


class TestUrnDraws:
    def test_draw_j_spans_its_range(self):
        d, draws, rows = 2, 4, 2000
        ks = _urn_draws(rows, d, draws, stream_rng(26))
        assert ks.shape == (draws, rows)
        for j in range(draws):
            assert ks[j].min() == 0 and ks[j].max() == d + j - 1

    def test_outcomes_resolve_the_draws(self):
        # oracle: resolve each state's draws one at a time in Python
        d, draws, rows = 3, 5, 500
        ks = _urn_draws(rows, d, draws, stream_rng(27))
        out = _urn_outcomes(rows, d, draws, stream_rng(27))
        assert out.shape == (rows, draws)
        for row, col in zip(out, ks.T):
            resolved = []
            for j, k in enumerate(col):
                resolved.append(resolved[k] if k < j else k - j)
            assert list(row) == resolved


class TestProbGoodType:
    def test_singletons_always_good(self):
        res = prob_good_type(PrefixParams(1, 0, 1, 1))
        assert res.exact == Fraction(1)

    def test_exact_six_of_ten(self):
        res = prob_good_type(PrefixParams(2, 0, 1, 2))
        assert res.exact == Fraction(6, 10)

    def test_mc_agrees_with_exact(self):
        res = prob_good_type(PrefixParams(2, 0, 1, 2), trials=100000, seed=3)
        assert abs(res.mc_estimate - float(res.exact)) <= 4 * res.mc_stderr

    def test_mc_estimate_pinned(self):
        # recorded from the sort-based fold predicate; bit for bit
        res = prob_good_type(PrefixParams(4, 1, 2, 4), trials=100000, seed=7)
        assert res.exact == Fraction(96, 187)
        assert res.mc_estimate == float.fromhex("0x1.07d1782d38477p-1")  # 0.51527
        assert res.mc_stderr == float.fromhex("0x1.9e4aef9a55869p-10")

    def test_mc_is_the_urn_rows_through_the_oracle(self):
        # 70000 trials take two 65536-row chunks from one generator
        p, trials, seed, stream = PrefixParams(3, 1, 2, 4), 70000, 11, 2
        rng = stream_rng(seed, stream)
        hits = 0
        for rows in (65536, trials - 65536):
            hits += sum(fold_good_oracle(tuple(row), p.m, p.ell)
                        for row in _urn_outcomes(rows, p.alphabet_dim, p.t, rng))
        res = prob_good_type(p, trials=trials, seed=seed, stream=stream)
        assert res.trials == trials
        assert res.mc_estimate == hits / trials

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationTooLarge):
            prob_good_type(PrefixParams(2, 1, 1, 3), enum_cap=119)
        # C(8+3-1, 3) = 120 types; the good ones take 3 of the 4 prefixes
        # with a free suffix bit each: 4 * 2^3 = 32
        assert prob_good_type(PrefixParams(2, 1, 1, 3),
                              enum_cap=120).exact == Fraction(32, 120)

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(3)])
    def test_prefix_sets_match_the_type_walk(self, n, m):
        for t in range(1, 5):
            if comb(2 ** (n + m) + t - 1, t) > 3 * 10**5:
                continue
            for ell in range(1, t + 1):
                p = PrefixParams(n, m, ell, t)
                good, count = good_count_by_type_walk(p)
                assert prob_good_type(p).exact == Fraction(good, count), (n, m, ell, t)

    def test_monotone_in_prefix_length(self):
        values = [prob_good_type(PrefixParams(n, 0, 1, 2)).exact
                  for n in (1, 2, 3)]
        assert values == sorted(values)


class TestBipartition:
    def test_pair_split(self):
        T = TypeVector.from_elements(2, (0, 1))
        split = type_bipartition(T, 1)
        assert split.coefficient == pytest.approx(1 / np.sqrt(2))
        got = {(left.elements(), right.elements())
               for left, right in split.pairs}
        assert got == {((0,), (1,)), ((1,), (0,))}

    def test_empty_side(self):
        T = TypeVector.from_elements(4, (0, 1, 2))
        split = type_bipartition(T, 0)
        assert split.coefficient == 1.0
        assert len(split.pairs) == 1
        left, right = split.pairs[0]
        assert left.total == 0 and right.elements() == (0, 1, 2)

    def test_reconstruction(self):
        T = TypeVector.from_elements(4, (0, 1, 2))
        split = type_bipartition(T, 1)
        rebuilt = np.zeros(4**3, dtype=complex)
        for left, right in split.pairs:
            rebuilt += split.coefficient * np.kron(
                type_state(left).amplitudes, type_state(right).amplitudes)
        np.testing.assert_allclose(rebuilt, type_state(T).amplitudes,
                                   atol=1e-12)

    def test_requires_collision_free(self):
        with pytest.raises(NotCollisionFree):
            type_bipartition(TypeVector.from_elements(2, (0, 0)), 1)

    def test_pair_count_exhaustive(self):
        for t, x in itertools.product(range(1, 5), range(0, 5)):
            if x > t:
                continue
            T = TypeVector.from_elements(8, tuple(range(t)))
            assert len(type_bipartition(T, x).pairs) == comb(t, x)
