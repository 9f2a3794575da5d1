"""Resolved Polya-urn outcomes: the oracle the raw-draw samplers (the
good-type Monte Carlo and the collision tester) are checked against."""

import numpy as np

from chslab.typespace import _urn_draws


def urn_outcomes(rows: int, d: int, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Computational-basis outcomes of ``draws`` copies of fresh Haar states.

    One row per state.  A Haar state's basis probabilities are
    Dirichlet(1,...,1), so its measured copies follow a Polya urn: draw j
    takes k uniform in [0, d + j) (``_urn_draws``) and repeats earlier
    draw k when k < j, else it is the fresh outcome k - j.  A row with
    counts c has probability prod c_i! / (d (d+1) ... (d+draws-1)) and
    draws! / prod c_i! orderings, so its multiset is a uniform type:
    probability 1 / C(d+draws-1, draws).  The outcomes are int64.
    """
    ks = _urn_draws(rows, d, draws, rng).astype(np.int64)
    out = ks - np.arange(draws)[:, None]
    for j in range(1, draws):
        rep = np.flatnonzero(ks[j] < j)
        out[j, rep] = out[ks[j, rep], rep]
    return out.T
