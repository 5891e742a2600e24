"""Counter-based random streams for reproducible, parallel Monte Carlo.

Every trial draws from its own Philox stream keyed by (master seed, trial
index), so results never depend on scheduling or worker count.

Philox is counter-based (Salmon et al., SC'11), so a stream is fixed by
its key alone: ``rekey`` points an existing Philox generator at the start
of the stream of (seed, index) by setting its key, counter and buffer
state, and ``trial_rng`` re-keys a new generator.  ``TrialStreams`` hands
a block of trials their streams through one generator, re-keyed to each
trial in turn, at a tenth of the cost of a new generator per trial, and
keeps what a pass over them draws for every later reader of the same
draws.
"""

import numpy as np

_MASK64 = (1 << 64) - 1

# The first stream index, at the config seed, of each draw of a neural
# detector's training run and of its ROC: each owns 2**60 streams.
SEARCH_STREAMS = 0
VALIDATION_STREAMS = 1 << 60
FINAL_STREAMS = 2 << 60
FIT_STREAMS = 3 << 60
ROC_STREAMS = 4 << 60
CALIBRATION_STREAMS = 5 << 60


def trial_rng(master_seed: int, trial_index: int = 0) -> np.random.Generator:
    """Independent generator for one trial of one experiment: a fresh
    Philox generator ``rekey``-ed to the stream of (seed, index)."""
    return rekey(np.random.Generator(np.random.Philox(0)), master_seed,
                 trial_index)


def rekey(rng: np.random.Generator, master_seed: int,
          trial_index: int) -> np.random.Generator:
    """Reset ``rng``, a Philox generator, to the start of the stream of
    (master_seed, trial_index), and return it.

    The Philox key packs the 64-bit master seed and the trial index, so
    streams for distinct (seed, index) pairs never collide.
    """
    if trial_index < 0:
        raise ValueError("trial_index must be nonnegative")
    # the state of a fresh Philox(key=(seed << 64) | index): the key's low
    # word first, a zero counter and an empty buffer
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0],
                  "key": [trial_index & _MASK64, master_seed & _MASK64]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng


class TrialStreams:
    """The streams of the trials ``trials`` at ``master_seed``, in order.

    Iterating yields one generator per trial, drawing what
    ``trial_rng(master_seed, i)`` would draw.  All of them are one Philox
    generator, re-keyed as the iteration reaches each trial: read a
    trial's stream before moving on to the next.  Every iteration starts
    the streams afresh.

    A pass can be kept instead: ``kept`` hands every caller of the same
    draw the arrays of the first pass, so a block that runs several curve
    points over its trials reads their streams once per draw.
    """

    def __init__(self, master_seed: int, trials):
        self.seed = master_seed
        self.trials = trials
        # a fixed seed spares the OS entropy a seedless generator would
        # read and the first re-key discard
        self._rng = np.random.Generator(np.random.Philox(0))
        self._kept = {}

    def kept(self, key, draw):
        """The arrays ``draw()`` returns, made by its first call with
        ``key`` and kept, read-only, for the life of these streams.

        ``draw`` reads these streams, each from its start, and ``key``
        must fix everything it draws: the streams fix the bits, so a
        later call with the same key gets what a fresh pass would draw.
        """
        if key not in self._kept:
            arrays = draw()
            for a in arrays:
                a.flags.writeable = False
            self._kept[key] = arrays
        return self._kept[key]

    def __len__(self):
        return len(self.trials)

    def __iter__(self):
        for i in self.trials:
            yield rekey(self._rng, self.seed, i)
