"""Tests for the block-derived per-trial random streams."""
import numpy as np
import pytest

from cloudmimo import streams
from cloudmimo.streams import trial_seed, trial_streams

# Master seeds of one to five 32-bit words; the longest overflows the
# four-word SeedSequence pool together with the trial index.
MASTERS = (0, 1, 31, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 130 + 7)
TRIALS = (0, 1, 2, 4095, 4096, 2 ** 32 - 1)


def numpy_trial_seed(master: int, trial: int) -> int:
    words = np.random.SeedSequence([master, trial]).generate_state(2)
    return int(words[0]) << 32 | int(words[1])


def test_trial_seed_matches_numpy_seed_sequence():
    for master in MASTERS:
        seeds = trial_seed(master, np.array(TRIALS))
        assert seeds.dtype == np.uint64
        for trial, seed in zip(TRIALS, seeds.tolist()):
            want = numpy_trial_seed(master, trial)
            assert seed == want, (master, trial)
            assert trial_seed(master, trial) == want


def test_trial_seed_scalar_is_python_int():
    assert isinstance(trial_seed(5, 3), int)


def test_trial_seed_rejects_negative_master_and_bad_trials():
    with pytest.raises(ValueError):
        trial_seed(-1, 0)
    with pytest.raises(ValueError):
        trial_seed(0, -1)
    with pytest.raises(ValueError):
        trial_seed(0, np.array([0, 2 ** 32]))


def test_seeded_generator_starts_where_pcg64_of_the_seed_starts():
    # Seeds of one and two 32-bit words and the 64-bit extremes: a stream
    # is reset to the state and increment of PCG64(seed), as the struct's
    # low and high words.
    seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1,
             numpy_trial_seed(7, 11)]
    rows = streams._initial_states(np.array(seeds, dtype=np.uint64))
    for seed, row in zip(seeds, rows.tolist()):
        state = np.random.PCG64(seed).state["state"]
        assert row == [state["state"] % 2 ** 64, state["state"] >> 64,
                       state["inc"] % 2 ** 64, state["inc"] >> 64], seed


@pytest.mark.parametrize("master", [0, 7, 2 ** 40 + 1])
def test_trial_streams_replay_default_rng_across_chunks(master, monkeypatch):
    # A chunk of 3 trials puts 8 trials in three chunks, the last partial.
    monkeypatch.setattr(streams, "_CHUNK_TRIALS", 3)
    count = 0
    for t, rng in enumerate(trial_streams(master, 8)):
        ref = np.random.default_rng(numpy_trial_seed(master, t))
        assert rng.poisson(40.0) == ref.poisson(40.0)
        assert np.array_equal(rng.random((3, 5)), ref.random((3, 5)))
        assert rng.integers(0, 2 ** 62) == ref.integers(0, 2 ** 62)
        count += 1
    assert count == 8


@pytest.mark.parametrize("first", [0, 2, 3, 7, 8])
def test_trial_streams_from_a_first_trial_are_that_trials_on(first,
                                                             monkeypatch):
    # Chunks of 3 start at the first trial: trial t's stream is the same
    # whichever range it is taken in.
    monkeypatch.setattr(streams, "_CHUNK_TRIALS", 3)
    whole = [rng.random(4) for rng in trial_streams(5, 8)]
    part = [rng.random(4) for rng in trial_streams(5, 8, first)]
    assert len(part) == 8 - first
    assert all(np.array_equal(a, b) for a, b in zip(whole[first:], part))


def test_trial_streams_reset_a_used_generator():
    # A stream taken after a draw of odd length (PCG64 caches half of a
    # 64-bit word for 32-bit draws) still starts clean.
    it = trial_streams(3, 2)
    next(it).integers(0, 10, size=3, dtype=np.uint32)
    ref = np.random.default_rng(numpy_trial_seed(3, 1))
    assert np.array_equal(next(it).integers(0, 10, size=5, dtype=np.uint32),
                          ref.integers(0, 10, size=5, dtype=np.uint32))


def test_state_struct_layout_mismatch_raises(monkeypatch):
    # Words written where numpy reads others (here the state's two words
    # swapped) must stop the streams rather than change them.
    initial = streams._initial_states
    monkeypatch.setattr(streams, "_initial_states",
                        lambda seeds: initial(seeds)[:, [1, 0, 2, 3]])
    streams._check_layout.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
            next(trial_streams(0, 1))
    finally:
        streams._check_layout.cache_clear()
