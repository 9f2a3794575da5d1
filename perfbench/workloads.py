"""The benchmark's workloads: each builds its inputs from the seed and
returns its operations.  An operation is one call into chslab plus the
checks of its output; only the call is timed."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]


# criterion 7's grid; 8 blocks of the library's 8192-trial chunk per cell,
# so the default worker pool gets more than one task
MC_GRID = tuple((d, t) for d in (16, 64, 1024) for t in (1, 2, 4))
MC_TRIALS = 65536
MC_INVARIANCE_CELL = (16, 4)
GOOD_TYPE = (4, 1, 2, 4)  # n, m, ell, t
GOOD_TYPE_TRIALS = 100000
MOMENT_D = 4
MOMENT_SAMPLES = 200000
MOMENT_CHUNK = 20000


def exact_hybrids(seed: int, tmp: Path, notes: dict) -> list[Op]:
    """The exact path at D <= 1024.  It draws no samples, so the seed is
    not used."""
    from chslab import commitment as cm
    from chslab import locc as lc
    from chslab import pseudo as ps

    pp = ps.PseudoParams
    single, five, multi = pp(5, 5, 1, 1), pp(2, 2, 2, 3), pp(3, 3, 1, 1)
    prfs, rank = pp(2, 3, 2, 1, (1, 1)), pp(3, 3, 1, 2)
    hiding = cm.CommitmentParams(2, 3, 2, 1)

    def check_prfs(res):
        # queries (0) and (1) select the independent key blocks k0 and k1,
        # so the keyed state is that of two independent 2-bit keys
        fails = checks.check_hybrid(res, 8, 3, 2, [[0], [1]], 1)
        if not res.exact_keys or res.keys_used != 16:
            fails.append(f"averaged {res.keys_used} keys (exact={res.exact_keys}), want all 16")
        return fails

    def check_hiding(td):
        fails = checks.check_hiding(td, 8, 3, 2, 2, 1)
        for (lam, n), want in checks.HIDING_KNOWN.items():
            got = cm.hiding_distance(cm.CommitmentParams(lam, n, 1, 1))
            fails += checks.close(f"hiding distance at lam={lam}, n={n}",
                                   got, float(want), checks.ENTRY_TOL)
        return fails

    return [
        Op("prs_hybrids lam=n=5 ell=t=1", lambda: ps.prs_hybrids(single),
           lambda r: checks.check_hybrid(r, 32, 5, 5, [[0]], 1,
                                         expected_td=checks.single_copy_distance(32))),
        Op("prs_hybrids lam=n=2 ell=2 t=3", lambda: ps.prs_hybrids(five),
           lambda r: checks.check_hybrid(r, 4, 2, 2, [[0, 1]], 3)),
        Op("prs_multikey_hybrids lam=n=3 ell=t=1 p=2",
           lambda: ps.prs_multikey_hybrids(multi, 2),
           lambda r: checks.check_hybrid(r, 8, 3, 3, [[0], [1]], 1)),
        Op("prfs_hybrids lam'=2 n=3 queries (0),(1) t=1",
           lambda: ps.prfs_hybrids(prfs, [(0,), (1,)]), check_prfs),
        Op("hiding_distance lam=2 n=3 p=2 t=1",
           lambda: cm.hiding_distance(hiding), check_hiding),
        Op("ppt_diff_norm d=10 t=2", lambda: lc.ppt_diff_norm(10, 2),
           checks.check_ppt_chain),
        Op("rank_attack lam=n=3 ell=1 t=2", lambda: ps.rank_attack(rank),
           lambda r: checks.check_rank_attack(r, 8, 1, 2)),
    ]


def collision_mc(seed: int, tmp: Path, notes: dict) -> list[Op]:
    """The sampled path: criterion 7's collision grid, the Monte Carlo
    good-type probability and a sampled Haar moment."""
    from chslab import locc as lc
    from chslab import typespace as ts

    ops = []
    for stream, (d, t) in enumerate(MC_GRID):
        lp = lc.LoccParams(d, t, MC_TRIALS, seed)

        def check_cell(res, d=d, t=t, lp=lp, stream=stream):
            est, stderr = res
            fails = checks.check_mc_cell(d, t, est, stderr,
                                         lc.locc_advantage_closed_form(d, t))
            if (d, t) == MC_INVARIANCE_CELL:
                serial = lc.locc_advantage_mc(lp, stream=stream, workers=1)
                if serial != tuple(res):
                    fails.append(f"one worker gives {serial}, default pool gives {res}")
            return fails

        ops.append(Op(f"locc_advantage_mc d={d} t={t}",
                      lambda lp=lp, stream=stream: lc.locc_advantage_mc(lp, stream=stream),
                      check_cell))

    good = ts.PrefixParams(*GOOD_TYPE)
    ops.append(Op(
        "prob_good_type n=4 m=1 ell=2 t=4",
        lambda: ts.prob_good_type(good, trials=GOOD_TYPE_TRIALS, seed=seed),
        lambda r: checks.check_good_type(r, checks.good_type_fraction(*GOOD_TYPE),
                                         GOOD_TYPE_TRIALS)))

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def sampled_moment():
        acc = np.zeros((MOMENT_D**2, MOMENT_D**2), dtype=np.complex128)
        for _ in range(MOMENT_SAMPLES // MOMENT_CHUNK):
            block = ts.haar_states_block(MOMENT_D, MOMENT_CHUNK, rng)
            lifted = np.einsum("na,nb->nab", block, block).reshape(MOMENT_CHUNK, -1)
            acc += lifted.T @ lifted.conj()
        return acc / MOMENT_SAMPLES

    ops.append(Op("sampled Haar moment d=4 t=2", sampled_moment,
                  lambda r: checks.check_sampled_moment(r, MOMENT_D, MOMENT_SAMPLES)))
    return ops


def suite_all(seed: int, tmp: Path, notes: dict) -> list[Op]:
    """``chslab --seed S --jobs 1 suite all`` through the CLI entry point."""
    from chslab import cli

    out = tmp / f"suite-all-{seed}-{os.getpid()}.json"
    argv = ["--seed", str(seed), "--jobs", "1", "--out", str(out), "suite", "all"]

    def check(code):
        text = out.read_text()
        notes["suite_fingerprint"] = checks.suite_fingerprint(text)
        return checks.check_suite(code, text)

    return [Op("chslab suite all", lambda: cli.main(argv), check)]


WORKLOADS = {
    "exact-hybrids": exact_hybrids,
    "collision-mc": collision_mc,
    "suite-all": suite_all,
}
