"""The test samplers draw the same stream as their one-at-a-time forms."""

import numpy as np
import pytest

from lgfeas import chain_pairs, complete_pairs
from util import pair_table_nonneg, sample_nonneg_pair_moments


def _scalar_sample(rng, n, pairs):
    # the one-draw-at-a-time rejection loop the block sampler replaces
    while True:
        b = rng.uniform(-1.0, 1.0, n)
        c = {pair: float(rng.uniform(-1.0, 1.0)) for pair in pairs}
        if all(pair_table_nonneg(b[i - 1], b[j - 1], c[(i, j)]) for i, j in pairs):
            return b, c


@pytest.mark.parametrize("n, pairs", [
    (3, complete_pairs(3)), (4, chain_pairs(4)), (7, chain_pairs(7)), (5, complete_pairs(5)),
])
@pytest.mark.parametrize("block", [1, 7, 256])
def test_block_sampler_reproduces_the_scalar_stream(n, pairs, block):
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(20):
        b, c = sample_nonneg_pair_moments(rng, n, pairs, block)
        ref_b, ref_c = _scalar_sample(ref, n, pairs)
        assert b.tobytes() == ref_b.tobytes() and c == ref_c
        assert rng.bit_generator.state == ref.bit_generator.state
