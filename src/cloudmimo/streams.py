"""Per-trial random streams, derived for many trials at once.

Trial ``t`` of a run draws from ``numpy.random.default_rng(seed)``, where
``seed = trial_seed(master_seed, t)`` joins the first two 32-bit words of
``SeedSequence([master_seed, t])``.  Built one trial at a time, that costs
two SeedSequence hashes and a fresh generator per trial, more than the
trial's own draws.  Here the hash runs as uint32 array arithmetic over a
chunk of trials, and a single PCG64 generator is reset to each trial's
initial state in turn.

The streams are numpy's, bit for bit: the hash is SeedSequence's (the
``seed_seq`` of O'Neill's PCG, as ``numpy.random.SeedSequence`` fixes it)
and the initial state is the one ``PCG64(seed)`` derives from it.  The
tests compare both with numpy.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
# numpy loads its random module on first use; load it with this module, so
# its import is counted in set-up rather than in the first run.
import numpy.random  # noqa: F401

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875     # pool hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED     # output hash
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = (0x2360ED051FC65DA4 << 64) | 0x4385DF649FCCF645
_MASK128 = (1 << 128) - 1

# Trials whose streams are derived together: enough to amortize the array
# arithmetic, few enough that the chunk's states take little memory.
_CHUNK_TRIALS = 1024


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a seed, as SeedSequence splits it."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _fold(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


def _seed_sequence_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words)`` for every entropy row.

    ``entropy`` is (rows, L) uint32: each row the words SeedSequence
    assembles from its entropy.  Rows shorter than the pool of four words
    may be padded with zeros without changing the result.  Returns
    (rows, n_words) uint32.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    rows, length = entropy.shape
    # The hash constants run through the same sequence for every row.
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        return _fold(value * np.uint32(hash_const))

    def mix(x, y):
        return _fold(x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R))

    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = _INIT_B
    out = np.empty((rows, n_words), dtype=np.uint32)
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        out[:, i] = _fold(value * np.uint32(hash_const))
    return out


def trial_seed(master_seed: int, trial):
    """Deterministic per-trial seed derived from the master seed.

    The first two 32-bit words of ``SeedSequence([master_seed, trial])``
    joined into one 64-bit integer.  An array of trial indices (each below
    2**32) gives a uint64 array of their seeds.
    """
    trials = np.atleast_1d(np.asarray(trial))
    if trials.size and (trials.min() < 0 or trials.max() > _MASK32):
        raise ValueError("trial indices must be in [0, 2**32)")
    master = _uint32_words(master_seed)
    entropy = np.empty((trials.size, len(master) + 1), dtype=np.uint32)
    entropy[:, :-1] = master
    entropy[:, -1] = trials
    words = _seed_sequence_state(entropy, 2).astype(np.uint64)
    seeds = words[:, 0] << np.uint64(32) | words[:, 1]
    return seeds if np.ndim(trial) else int(seeds[0])


def trial_streams(master_seed: int,
                  trials: int) -> Iterator[np.random.Generator]:
    """Yield ``default_rng(trial_seed(master_seed, t))`` for t < ``trials``.

    The seeds and initial states are derived for ``_CHUNK_TRIALS`` trials
    at a time.  One generator is reset for each trial in turn, so a yielded
    generator is only valid until the next one is taken.
    """
    for first in range(0, trials, _CHUNK_TRIALS):
        seeds = trial_seed(master_seed, np.arange(
            first, min(first + _CHUNK_TRIALS, trials)))
        yield from _seeded(seeds)


def _seeded(seeds: np.ndarray) -> Iterator[np.random.Generator]:
    """One generator, reset to the start of ``default_rng(seed)`` per seed."""
    entropy = np.stack([seeds & np.uint64(_MASK32),
                        seeds >> np.uint64(32)], axis=1)
    # PCG64(seed) takes four 64-bit words (initial state and increment,
    # high word first) from SeedSequence(seed).generate_state(8).
    words = _seed_sequence_state(entropy, 8).astype(np.uint64)
    seed_words = (words[:, 0::2] | words[:, 1::2] << np.uint64(32)).tolist()
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for state_hi, state_lo, inc_hi, inc_lo in seed_words:
        # pcg64_srandom_r: state 0, one LCG step, add the seed, one step
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = (((state_hi << 64 | state_lo) + inc) * _PCG_MULT
                 + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
        yield generator
