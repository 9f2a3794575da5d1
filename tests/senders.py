"""Haar-random malicious senders: the sampled oracle that no sender beats
the constructed optimum of ``chslab.commitment.optimal_attack``."""

import numpy as np

from chslab.commitment import _ENV_DIM, CommitmentParams, MaliciousSender
from chslab.linalg import RegisterShape, StateVector
from chslab.rng import stream_rng
from chslab.typespace import haar_states_block


def random_strategy(common: StateVector, cp: CommitmentParams,
                    seed: int) -> MaliciousSender:
    """Haar-random initial state with independent Haar reveal unitaries."""
    d = 2**cp.n
    rng = stream_rng(seed, 0)
    shape = RegisterShape((d,) * (2 * cp.p) + (_ENV_DIM,))
    initial = StateVector(shape, haar_states_block(shape.total, 1, rng)[0])

    dim_re = d**cp.p * _ENV_DIM
    us = []
    for _ in range(2):
        z = rng.standard_normal((dim_re, dim_re)) + 1j * rng.standard_normal((dim_re, dim_re))
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        us.append(q)
    return MaliciousSender(initial, us[0], us[1])
