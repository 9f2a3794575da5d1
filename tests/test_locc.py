"""Tests for Kneser spectra, the collision distinguisher, and the
partially transposed difference-norm chain."""

import itertools
import time
from math import comb

import numpy as np
import pytest

from chslab import locc
from chslab.errors import DimensionOverflow, EnumerationTooLarge, ParameterError
from chslab.linalg import Operator, RegisterShape, partial_transpose, trace_norm
from chslab.locc import (
    KneserParams,
    LoccParams,
    kneser_adjacency,
    kneser_one_norm,
    locc_advantage_closed_form,
    locc_advantage_mc,
    ppt_diff_norm,
    ppt_vs_haar_bound,
    _mc_block,
    _ppt_blocks,
    _subset_overlaps,
    _subset_surrogates,
)
from chslab.rng import stream_rng
from chslab.typespace import (
    TypeVector,
    _urn_outcomes,
    enumerate_types,
    haar_moment,
    type_state,
)


def all_distinct(outcomes):
    """Per row: True iff its entries are pairwise distinct, by sorting."""
    srt = np.sort(outcomes, axis=1)
    return (np.diff(srt, axis=1) != 0).all(axis=1)


class TestKneser:
    def test_two_vertex_edge(self):
        adj = kneser_adjacency(KneserParams(2, 1))
        np.testing.assert_allclose(adj.entries, [[0, 1], [1, 0]])
        exact, formula = kneser_one_norm(KneserParams(2, 1))
        assert exact == pytest.approx(2.0, abs=1e-12)
        assert formula == 2.0

    def test_perfect_matching_at_boundary(self):
        adj = kneser_adjacency(KneserParams(4, 2)).entries.real
        assert adj.sum() == 6  # 6 vertices, each disjoint only from its complement
        assert (adj.sum(axis=1) == 1).all()
        exact, formula = kneser_one_norm(KneserParams(4, 2))
        assert exact == pytest.approx(6.0, abs=1e-12)
        assert formula == pytest.approx(6.0)

    def test_petersen_spectrum(self):
        adj = kneser_adjacency(KneserParams(5, 2))
        assert (adj.entries.real.sum(axis=1) == 3).all()
        eigs = np.sort(np.linalg.eigvalsh(adj.entries))
        expected = np.sort([3.0] + [1.0] * 5 + [-2.0] * 4)
        np.testing.assert_allclose(eigs, expected, atol=1e-10)
        exact, formula = kneser_one_norm(KneserParams(5, 2))
        assert exact == pytest.approx(16.0, abs=1e-8)
        assert formula == pytest.approx(16.0)

    def test_seven_three(self):
        exact, formula = kneser_one_norm(KneserParams(7, 3))
        assert formula == pytest.approx(2**3 * 6 * 4 * 2 / 6)
        assert abs(exact - 64.0) < 1e-8

    def test_formula_matches_spectrum_small_grid(self):
        for v in range(3, 26):
            for k in range(1, v // 2 + 1):
                if v < 2 * k + 1 or comb(v, k) > 200:
                    continue
                exact, formula = kneser_one_norm(KneserParams(v, k))
                assert abs(exact - formula) < 1e-8, (v, k)

    def test_parameter_guard(self):
        with pytest.raises(ParameterError):
            KneserParams(3, 2)

    def test_dimension_cap_before_any_matrix(self, monkeypatch):
        # C(200, 1) = 200 vertices pass the enumeration cap; the overlap
        # matrix must not be built when they do not pass the dimension cap
        def refuse(v, k):
            raise AssertionError("overlap matrix built past the cap")

        monkeypatch.setattr(locc, "_subset_overlaps", refuse)
        with pytest.raises(DimensionOverflow):
            kneser_adjacency(KneserParams(200, 1), cap=199)
        with pytest.raises(DimensionOverflow):
            kneser_one_norm(KneserParams(200, 1), cap=199)
        monkeypatch.undo()
        assert kneser_adjacency(KneserParams(200, 1), cap=200).dim == 200

    def test_adjacency_matches_set_loop(self):
        # oracle: pairwise set disjointness over the lexicographic subsets
        for v in range(2, 13):
            for k in range(1, v // 2 + 1):
                subsets = [frozenset(s) for s in itertools.combinations(range(v), k)]
                oracle = np.zeros((len(subsets), len(subsets)))
                for i, a in enumerate(subsets):
                    for j in range(i + 1, len(subsets)):
                        if not (a & subsets[j]):
                            oracle[i, j] = oracle[j, i] = 1.0
                adj = kneser_adjacency(KneserParams(v, k)).entries
                np.testing.assert_array_equal(adj, oracle, err_msg=f"K({v},{k})")


class TestClosedForm:
    def test_small_example(self):
        assert locc_advantage_closed_form(4, 1) == 0.15

    def test_no_copies(self):
        assert locc_advantage_closed_form(4, 0) == 0.0

    def test_positive_on_grid(self):
        for d in (16, 32, 64, 128):
            for t in (1, 2, 3):
                assert locc_advantage_closed_form(d, t) > 0.0

    def test_decay_in_dimension(self):
        assert locc_advantage_closed_form(16, 2) >= locc_advantage_closed_form(32, 2)

    def test_parameter_guard(self):
        with pytest.raises(ParameterError):
            locc_advantage_closed_form(3, 2)


class TestMonteCarlo:
    def test_agrees_with_closed_form_small(self):
        est, stderr = locc_advantage_mc(LoccParams(4, 1, trials=200000, seed=21))
        assert abs(est - 0.15) <= 4 * stderr

    def test_agrees_with_closed_form_large_dim(self):
        est, stderr = locc_advantage_mc(LoccParams(1024, 1, trials=100000, seed=22))
        assert abs(est - locc_advantage_closed_form(1024, 1)) <= 4 * stderr

    def test_no_copies(self):
        assert locc_advantage_mc(LoccParams(4, 0, trials=10, seed=0)) == (0.0, 0.0)

    def test_worker_count_and_repeat_invariance(self):
        lp = LoccParams(64, 2, trials=20000, seed=9)
        first = locc_advantage_mc(lp, stream=3)
        assert locc_advantage_mc(lp, stream=3, workers=1) == first
        assert locc_advantage_mc(lp, stream=3) == first
        assert locc_advantage_mc(lp, stream=4) != first

    @pytest.mark.parametrize("d,t,est,stderr", [
        (4, 1, "0x1.2d916872b0210p-3", "0x1.2eeba68c79eb8p-8"),
        (16, 4, "0x1.3404ea4a8c155p-5", "0x1.0767ef525ee1ep-9"),
        (1024, 2, "0x1.13404ea4a8c00p-9", "0x1.042b4a71c202bp-10")])
    def test_estimate_pinned(self, d, t, est, stderr):
        # recorded from the sort-free tester before its draws became
        # per-draw vectors; 20000 trials are two full blocks and a partial
        got = locc_advantage_mc(LoccParams(d, t, trials=20000, seed=7))
        assert got == (float.fromhex(est), float.fromhex(stderr))

    @pytest.mark.parametrize("d,t", [(3, 1), (4, 1), (4, 2), (16, 4), (64, 2),
                                     (1024, 4)])
    def test_block_hits_match_resolved_outcomes(self, d, t):
        # oracle: resolve both urns from the block's generator into outcomes
        # and sort-test every row; the block must count the same trials
        seed, stream, block, rows = 31, 2, 5, 8192
        rng = stream_rng(seed, (stream, block))
        shared = _urn_outcomes(rows, d, 2 * t, rng)
        both = np.concatenate([shared[:, :t], _urn_outcomes(rows, d, t, rng)], axis=1)
        want = (int(all_distinct(shared).sum()), int(all_distinct(both).sum()))
        assert 0 < want[0] and want[1] < rows  # both verdicts occur
        assert _mc_block(seed, stream, block, rows, d, t) == want

    def test_identical_branch_collision_histogram(self):
        # measured type of 2t draws from one Haar state must be uniform over
        # the C(d+2t-1, 2t) types; compare support-size histograms
        d, t, trials = 4, 2, 100000
        types = enumerate_types(d, 2 * t)
        sizes = np.array([len(T.items) for T in types])
        expected = np.array([(sizes == s).sum() / len(types)
                             for s in range(1, 2 * t + 1)])

        outcomes = _urn_outcomes(trials, d, 2 * t, stream_rng(23))
        support = np.array([len(set(row)) for row in outcomes])
        counts = np.array([(support == s).sum() for s in range(1, 2 * t + 1)])
        chi2 = float((((counts - trials * expected) ** 2)
                      / (trials * expected)).sum())
        assert chi2 < 16.266  # 99.9th percentile of chi-squared with 3 dof

    def test_shared_branch_type_uniform(self):
        # all C(4+4-1, 4) = 35 types of 2t = 4 draws at d = 4 equally likely
        d, draws, trials = 4, 4, 100000
        outcomes = np.sort(_urn_outcomes(trials, d, draws, stream_rng(24)), axis=1)
        observed = {tuple(row): n for row, n in
                    zip(*np.unique(outcomes, axis=0, return_counts=True))}
        types = [tuple(T.elements()) for T in enumerate_types(d, draws)]
        assert len(types) == 35 and set(observed) <= set(types)
        counts = np.array([observed.get(T, 0) for T in types])
        expected = trials / len(types)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 65.247  # 99.9th percentile of chi-squared with 34 dof

    def test_independent_branch_type_pairs_uniform(self):
        # (type of A's first t draws, type of B's t draws) at d = 3, t = 2 is
        # uniform over the 6 x 6 pairs: A's prefix and urn B are independent
        d, t, trials = 3, 2, 100000
        rng = stream_rng(25)
        first = np.sort(_urn_outcomes(trials, d, 2 * t, rng)[:, :t], axis=1)
        other = np.sort(_urn_outcomes(trials, d, t, rng), axis=1)
        types = [tuple(T.elements()) for T in enumerate_types(d, t)]
        assert len(types) == 6
        index = {T: i for i, T in enumerate(types)}
        cells = np.array([index[tuple(a)] * 6 + index[tuple(b)]
                          for a, b in zip(first, other)])
        counts = np.bincount(cells, minlength=36)
        expected = trials / 36
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 66.619  # 99.9th percentile of chi-squared with 35 dof


def full_space_surrogates(d, t):
    """Materialise both subset mixtures on the full d^(2t) space."""
    dim = d ** (2 * t)
    rho = np.zeros((dim, dim), dtype=complex)
    for T in itertools.combinations(range(d), 2 * t):
        psi = type_state(TypeVector.from_elements(d, T)).amplitudes
        rho += np.outer(psi, psi.conj())
    rho /= comb(d, 2 * t)
    sigma = np.zeros((dim, dim), dtype=complex)
    count = 0
    for sa in itertools.combinations(range(d), t):
        rest = [x for x in range(d) if x not in sa]
        pa = type_state(TypeVector.from_elements(d, sa)).amplitudes
        for sb in itertools.combinations(rest, t):
            pb = type_state(TypeVector.from_elements(d, sb)).amplitudes
            vec = np.kron(pa, pb)
            sigma += np.outer(vec, vec.conj())
            count += 1
    return rho, sigma / count


def dense_subset_pair_norm(d, t):
    """Trace norm of Gamma(rho) - Gamma(sigma) as one C(d,t)^2-square matrix:
    both mixtures filled pair by pair, then B's subset index swapped."""
    subsets = list(itertools.combinations(range(d), t))
    index = {s: i for i, s in enumerate(subsets)}
    S = len(subsets)
    rho = np.zeros((S * S, S * S))
    sigma = np.zeros((S * S, S * S))
    for T in itertools.combinations(range(d), 2 * t):
        for X in itertools.combinations(T, t):
            u = index[tuple(sorted(set(T) - set(X)))]
            for Y in itertools.combinations(T, t):
                v = index[tuple(sorted(set(T) - set(Y)))]
                rho[u * S + index[X], v * S + index[Y]] += 1.0 / (
                    comb(d, 2 * t) * comb(2 * t, t))
    for a, sa in enumerate(subsets):
        for b, sb in enumerate(subsets):
            if not (set(sa) & set(sb)):
                sigma[a * S + b, a * S + b] = 1.0 / (comb(d, t) * comb(d - t, t))

    def gamma(mat):
        return mat.reshape(S, S, S, S).transpose(0, 3, 2, 1).reshape(S * S, S * S)

    return float(np.abs(np.linalg.eigvalsh(gamma(rho) - gamma(sigma))).sum())


def gather_blocks(d, t):
    """Every block j = 0..t of Gamma(rho) - Gamma(sigma), gathered from the
    subset-overlap matrix: the pair (a, b) joins (c, e) when a, e and c, b
    are disjoint and a u e = c u b, read off four gathers of g."""
    g = _subset_overlaps(d, t)
    weight_rho = 1.0 / (comb(d, 2 * t) * comb(2 * t, t))
    weight_sigma = 1.0 / (comb(d, t) * comb(d - t, t))
    blocks = []
    for j in range(t + 1):
        a, b = np.nonzero(g == j)
        cross = g[np.ix_(a, b)]  # |a_r n b_s|: row r's a against column s's e
        # a u e = c u b  <=>  |a n c| + |a n b| + |e n c| + |e n b| = 2t
        joined = ((cross == 0) & (cross.T == 0)
                  & (g[np.ix_(a, a)] + g[np.ix_(b, b)] == 2 * (t - j)))
        block = weight_rho * joined
        block[np.diag_indices(len(a))] -= weight_sigma * (cross.diagonal() == 0)
        blocks.append(block)
    return blocks


class TestPptChain:
    def test_single_copy_value(self):
        chain = ppt_diff_norm(6, 1)
        assert chain.exact == pytest.approx(2 / 6, abs=1e-10)
        assert chain.kneser_sum == pytest.approx(2 / 6, abs=1e-10)
        assert chain.middle == pytest.approx(2 / 6, abs=1e-10)

    @pytest.mark.parametrize("d,t", [(6, 1), (6, 2), (8, 2), (5, 2), (7, 3), (10, 2)])
    def test_chain_holds(self, d, t):
        # the first link holds with equality: each |a n b| block is a
        # multiple of a Kneser adjacency
        chain = ppt_diff_norm(d, t)
        assert chain.exact == pytest.approx(chain.kneser_sum, abs=1e-10)
        assert chain.kneser_sum == pytest.approx(chain.middle, abs=1e-8)
        assert chain.middle <= chain.factorial_bound + 1e-8
        assert chain.factorial_bound <= chain.series_bound + 1e-8

    def test_subset_basis_matches_full_space(self):
        # independent oracle: build the mixtures on the full 5^4 space and
        # transpose the second party's registers there
        d, t = 5, 2
        rho, sigma = full_space_surrogates(d, t)
        shape = RegisterShape((d,) * (2 * t))
        diff = Operator(
            shape,
            partial_transpose(Operator(shape, rho), [2, 3]).entries
            - partial_transpose(Operator(shape, sigma), [2, 3]).entries)
        assert trace_norm(diff) == pytest.approx(ppt_diff_norm(d, t).exact,
                                                 abs=1e-8)

    def test_sigma_surrogate_transpose_invariant(self):
        d, t = 5, 1
        _, sigma = full_space_surrogates(d, t)
        shape = RegisterShape((d, d))
        op = Operator(shape, sigma)
        np.testing.assert_allclose(partial_transpose(op, [1]).entries, sigma,
                                   atol=1e-12)

    def test_parameter_guard(self):
        with pytest.raises(ParameterError):
            ppt_diff_norm(4, 2)

    def test_enumeration_cap(self):
        # the subset-pair basis at (10, 2) has C(10,2)^2 = 2025 elements
        with pytest.raises(EnumerationTooLarge):
            ppt_diff_norm(10, 2, enum_cap=2024)
        assert ppt_diff_norm(10, 2, enum_cap=2025).exact > 0.0

    @pytest.mark.parametrize("d,t", [(5, 2), (6, 2), (7, 3), (8, 2), (10, 2)])
    def test_blocks_match_dense_subset_pair_build(self, d, t):
        assert ppt_diff_norm(d, t).exact == pytest.approx(
            dense_subset_pair_norm(d, t), abs=1e-12)

    @pytest.mark.parametrize("d,t", [(5, 2), (6, 2), (7, 2), (7, 3), (8, 1), (8, 2),
                                     (9, 3), (10, 2)])
    def test_rule_blocks_match_gather_blocks(self, d, t):
        # the gather construction, the oracle: its j = 0 block is exactly
        # zero, and every j >= 1 block equals the scattered one entry for entry
        gathered = gather_blocks(d, t)
        assert not gathered[0].any()
        built = list(_ppt_blocks(d, t))
        assert len(built) == t
        for j, block in enumerate(built, start=1):
            np.testing.assert_array_equal(block, gathered[j])

    def test_cap_admitted_size_refused_before_allocation(self):
        # C(12,3)^2 = 48400 passes the enumeration cap, but the j = 1 block
        # has 23760 rows, above the default dimension cap of 16384
        start = time.perf_counter()
        with pytest.raises(DimensionOverflow):
            ppt_diff_norm(12, 3)
        assert time.perf_counter() - start < 1.0

    def test_dimension_cap_is_the_largest_block(self):
        # at (10, 2) the blocks have 720 (j = 1) and 45 (j = 2) rows
        with pytest.raises(DimensionOverflow):
            ppt_diff_norm(10, 2, cap=719)
        assert ppt_diff_norm(10, 2, cap=720).exact == ppt_diff_norm(10, 2).exact

    @pytest.mark.parametrize("d,t", [(5, 2), (6, 2), (7, 3), (8, 2), (10, 2)])
    def test_zero_block_skips_the_solver(self, d, t, monkeypatch):
        # spied where the whole block enters the spectral primitive, before
        # it may be split into components and stacked: a stack's len() is a
        # block count, so a zero block split into 1x1 blocks would hide from
        # a spy on numpy's solver
        solved = []
        solver = locc._spectrum

        def record(m):
            solved.append(np.asarray(m))
            return solver(m)

        monkeypatch.setattr(locc, "_spectrum", record)
        ppt_diff_norm(d, t)
        # no solver call sees an all-zero matrix: the j = 0 block (disjoint
        # pairs, C(d,t) C(d-t,t) of them) is exactly zero and is never
        # built, and the j >= 1 blocks come from the scatter rule
        assert solved and all(m.ndim == 2 and m.any() for m in solved)
        assert comb(d, t) * comb(d - t, t) not in [len(m) for m in solved]

    @pytest.mark.parametrize("d,t", [(4, 1), (5, 2), (6, 2)])
    def test_mask_surrogates_match_subset_mixtures(self, d, t):
        shape = RegisterShape((d,) * (2 * t))
        rho = Operator(shape, haar_moment(d, 2 * t).entries)
        half = haar_moment(d, t).entries
        sigma = Operator(shape, np.kron(half, half))
        rho_tilde, sigma_tilde = _subset_surrogates(d, t, rho, sigma)
        rho_oracle, sigma_oracle = full_space_surrogates(d, t)
        np.testing.assert_allclose(rho_tilde.entries, rho_oracle, rtol=0, atol=1e-15)
        np.testing.assert_allclose(sigma_tilde.entries, sigma_oracle, rtol=0,
                                   atol=1e-15)

    @pytest.mark.parametrize("d,t", [(2, 1), (4, 1), (4, 2), (5, 2)])
    def test_surrogate_mask_is_the_distinct_digit_rows(self, d, t):
        # the moment's diagonal is positive, so the surrogate's diagonal is
        # nonzero exactly on the rows the mask keeps
        rho = haar_moment(d, 2 * t)
        rho_tilde, _ = _subset_surrogates(d, t, rho, rho)
        rows = np.indices((d,) * (2 * t)).reshape(2 * t, -1).T
        assert rho.values.diagonal().all()
        np.testing.assert_array_equal(rho_tilde.values.diagonal() != 0,
                                      all_distinct(rows))

    @pytest.mark.parametrize("d,t", [(6, 1), (5, 2), (6, 2), (7, 2)])
    def test_independent_pair_is_the_kron_of_the_moments(self, monkeypatch, d, t):
        seen = []
        surrogates = locc._subset_surrogates

        def record(d_, t_, rho, sigma):
            seen.append(sigma.values)
            return surrogates(d_, t_, rho, sigma)

        monkeypatch.setattr(locc, "_subset_surrogates", record)
        ppt_vs_haar_bound(d, t)
        half = haar_moment(d, t).values
        want = np.kron(half, half)
        assert len(seen) == 1 and seen[0].dtype == want.dtype
        assert seen[0].tobytes() == want.tobytes()


class TestSandwich:
    @pytest.mark.parametrize("d,t", [(4, 1), (6, 1)])
    def test_advantage_below_true_half_norm(self, d, t):
        res = ppt_vs_haar_bound(d, t)
        assert res.half_norm_true is not None
        assert res.advantage <= res.half_norm_true + 1e-8

    @pytest.mark.parametrize("d,t", [(4, 1), (6, 1), (6, 2)])
    def test_advantage_below_combined_pieces(self, d, t):
        res = ppt_vs_haar_bound(d, t)
        combined = (res.half_norm_surrogate + res.slack_identical
                    + res.slack_independent)
        assert res.advantage <= combined + 1e-8

    def test_true_moments_are_solved_in_type_blocks(self, monkeypatch):
        # the true half-norm and both slacks at (6, 2) are taken on
        # 1296-square matrices that are block diagonal by type; the solver
        # only ever sees their blocks
        dims = []
        solver = np.linalg.eigvalsh

        def record(m, *args, **kwargs):
            dims.append(np.shape(m)[-1])
            return solver(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", record)
        res = ppt_vs_haar_bound(6, 2)
        assert dims and max(dims) < 6 ** 4
        # the true-moment PPT half-norm at (6, 2) is exactly 75/196
        assert res.half_norm_true == pytest.approx(75 / 196, abs=1e-12)

    def test_no_copies(self):
        res = ppt_vs_haar_bound(8, 0)
        assert res.advantage == 0.0 and res.half_norm_surrogate == 0.0

    def test_cap_falls_back_to_reference(self):
        res = ppt_vs_haar_bound(8, 2, cap=1000)
        assert res.half_norm_true is None
        assert res.slack_reference == pytest.approx(0.5)
        assert res.half_norm_surrogate > 0.0

    def test_cap_reaches_the_surrogate_blocks(self):
        # the j = 1 surrogate block at (10, 2) has 720 rows
        with pytest.raises(DimensionOverflow):
            ppt_vs_haar_bound(10, 2, cap=719)
