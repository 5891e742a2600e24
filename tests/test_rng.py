"""Re-keyed streams against the generator ``trial_rng`` builds."""

import numpy as np
import pytest

from doalab.harness import ROC_STREAMS
from doalab.rng import blank_rng, rekey, trial_rng, trial_rngs

SEEDS = [0, 2 ** 63 + 5, 2 ** 64 - 1, 2 ** 70 + 3]
INDICES = [0, 1, ROC_STREAMS, ROC_STREAMS + 1, 2 ** 64 - 1]


def draws(rng):
    """Bytes of one of each kind of draw the experiments make, in turn."""
    parts = [
        rng.standard_gamma(np.array([199.0, 5.5, 0.5])),
        rng.standard_gamma(3.0, size=5),
        rng.standard_normal(7),
        rng.random(6),
        rng.integers(0, 1000, 9),
        rng.permutation(11),
        rng.standard_normal((3, 2)),
    ]
    return b"".join(np.asarray(p).tobytes() for p in parts)


@pytest.mark.parametrize("seed", SEEDS)
def test_rekey_draws_trial_rng_bits(seed):
    rng = blank_rng()
    for i in INDICES:
        want = draws(trial_rng(seed, i))
        assert draws(rekey(rng, seed, i)) == want
        # re-keying again rewinds a stream already drawn from
        assert draws(rekey(rng, seed, i)) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_rngs_draw_trial_rng_bits(seed):
    rngs = trial_rngs(seed, INDICES)
    assert len(rngs) == len(INDICES)
    assert len({id(rng) for rng in rngs}) == len(rngs)
    for rng, i in zip(rngs, INDICES):
        assert draws(rng) == draws(trial_rng(seed, i))


def test_successive_calls_each_match():
    # the second call re-keys the pooled generators the first handed out
    first = trial_rngs(11, range(5))
    first_draws = [draws(rng) for rng in first]
    second = trial_rngs(12, range(3, 10))
    assert first_draws == [draws(trial_rng(11, i)) for i in range(5)]
    assert [draws(rng) for rng in second] == [draws(trial_rng(12, i))
                                              for i in range(3, 10)]


def test_empty_block():
    assert trial_rngs(0, range(0)) == []


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        rekey(blank_rng(), 0, -1)
    with pytest.raises(ValueError):
        trial_rngs(0, [3, -1])
    with pytest.raises(ValueError):
        trial_rng(0, -1)
