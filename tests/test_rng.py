"""Re-keyed streams against the generator ``trial_rng`` builds."""

import numpy as np
import pytest

from doalab.harness import ROC_STREAMS
from doalab.rng import TrialStreams, rekey, trial_rng

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
    rng = trial_rng(12345, 6)
    for i in INDICES:
        want = draws(trial_rng(seed, i))
        assert draws(rekey(rng, seed, i)) == want
        # re-keying again rewinds a stream already drawn from
        assert draws(rekey(rng, seed, i)) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_streams_draw_trial_rng_bits(seed):
    streams = TrialStreams(seed, INDICES)
    assert len(streams) == len(INDICES)
    want = [draws(trial_rng(seed, i)) for i in INDICES]
    # every pass starts the streams afresh
    for _ in range(2):
        assert [draws(rng) for rng in streams] == want


@pytest.mark.parametrize("seed", [0, 20240901, 2 ** 63 + 5, 2 ** 64 - 1])
def test_philox_key_layout(seed):
    # the stream of (seed, index) is Philox keyed by the 128-bit integer
    # (seed << 64) | index: a stream that swapped the two words would
    # still be distinct per pair, so only this pins the bits of every run
    for i in [0, 1, ROC_STREAMS, 2 ** 64 - 1]:
        want = draws(np.random.Generator(np.random.Philox(key=(seed << 64) | i)))
        assert draws(trial_rng(seed, i)) == want
        rng, = TrialStreams(seed, [i])
        assert draws(rng) == want


def test_successive_calls_each_match():
    # a second object, or a pass left unfinished, leaves the streams of
    # the first one intact
    first = TrialStreams(11, range(5))
    next(iter(first)).random(3)
    second = TrialStreams(12, range(3, 10))
    assert [draws(rng) for rng in second] == [draws(trial_rng(12, i))
                                              for i in range(3, 10)]
    assert [draws(rng) for rng in first] == [draws(trial_rng(11, i))
                                             for i in range(5)]


def test_one_generator_per_object(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    streams = TrialStreams(3, range(50))
    for _ in range(2):
        for rng in streams:
            rng.standard_normal(2)
    assert len(built) == 1


def test_kept_pass_drawn_once():
    # a kept pass is made by the first call of its key, read-only
    streams = TrialStreams(5, range(4))
    calls = []

    def draw():
        calls.append(1)
        return (np.array([rng.random() for rng in streams]),)

    first = streams.kept("a", draw)
    assert streams.kept("a", draw) is first and len(calls) == 1
    assert not first[0].flags.writeable
    assert first[0].tobytes() == np.array(
        [trial_rng(5, i).random() for i in range(4)]).tobytes()
    streams.kept("b", draw)
    assert len(calls) == 2


def test_empty_block():
    assert len(TrialStreams(0, range(0))) == 0
    assert list(TrialStreams(0, range(0))) == []


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        rekey(trial_rng(0), 0, -1)
    with pytest.raises(ValueError):
        list(TrialStreams(0, [3, -1]))
    with pytest.raises(ValueError):
        trial_rng(0, -1)
