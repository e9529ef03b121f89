"""Per-trial random streams, derived for many trials at once.

Trial ``t`` of a run draws from ``numpy.random.default_rng(seed)``, where
``seed = trial_seed(master_seed, t)`` joins the first two 32-bit words of
``SeedSequence([master_seed, t])``.  Built one trial at a time, that costs
two SeedSequence hashes and a fresh generator per trial, more than the
trial's own draws.  Here the hash and PCG64's seeding step run as array
arithmetic over a chunk of trials, which gives each trial's initial state
and increment as four 64-bit words.  A single PCG64 generator is reset to
each trial in turn by writing its four words straight into the generator's
state struct, reached through the documented
``bit_generator.ctypes.state_address``, and clearing the struct's cached
32-bit half-word; going through the ``PCG64.state`` setter instead would
cost several times a small trial's own draws.

Only this module knows the struct's layout.  Before it first writes to a
generator in a process, it reads a scratch generator's struct against the
public ``state`` getter, then writes one known state into it and reads
that back; if either differs (a numpy release changed the layout) it
raises ``RuntimeError`` rather than produce other streams.

The streams are numpy's, bit for bit: the hash is SeedSequence's (the
``seed_seq`` of O'Neill's PCG, as ``numpy.random.SeedSequence`` fixes it)
and the initial state is the one ``PCG64(seed)`` derives from it.  The
tests compare both with numpy.
"""
from __future__ import annotations

import ctypes
import functools
from collections.abc import Iterator

import numpy as np
# numpy loads its random module on first use; load it with this module, so
# its import is counted in set-up rather than in the first run.
import numpy.random  # noqa: F401

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875     # pool hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED     # output hash
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier, high and low 64-bit words.
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_LOW32 = np.uint64(_MASK32)
_SHIFT32, _SHIFT63, _ONE = np.uint64(32), np.uint64(63), np.uint64(1)

# A seed whose initial state the layout check writes and reads back.
_CHECK_SEED = 0x9E3779B97F4A7C15

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


def trial_streams(master_seed: int, trials: int,
                  first: int = 0) -> Iterator[np.random.Generator]:
    """Yield ``default_rng(trial_seed(master_seed, t))``, first <= t < trials.

    The seeds and initial states are derived for ``_CHUNK_TRIALS`` trials
    at a time.  One generator is reset for each trial in turn, so a yielded
    generator is only valid until the next one is taken.
    """
    _check_layout()
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    words, cached = _state_struct(bit_generator)
    for start in range(first, trials, _CHUNK_TRIALS):
        seeds = trial_seed(master_seed, np.arange(
            start, min(start + _CHUNK_TRIALS, trials)))
        for state in _initial_states(seeds).tolist():
            words[:] = state
            cached.value = 0
            yield generator


def _mul_wide(a: np.ndarray, b: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``a * b``."""
    a0, a1 = a & _LOW32, a >> _SHIFT32
    b0, b1 = b & _LOW32, b >> _SHIFT32
    low, cross, cross_b = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> _SHIFT32) + (cross & _LOW32) + (cross_b & _LOW32)
    return (a1 * b1 + (cross >> _SHIFT32) + (cross_b >> _SHIFT32)
            + (mid >> _SHIFT32)), (mid << _SHIFT32) | (low & _LOW32)


def _add_wide(hi, lo, add_hi, add_lo) -> tuple[np.ndarray, np.ndarray]:
    """128-bit sums of (hi, lo) word pairs, modulo 2**128."""
    low = lo + add_lo
    return hi + add_hi + (low < lo), low


def _initial_states(seeds: np.ndarray) -> np.ndarray:
    """PCG64 state and increment of ``default_rng(seed)`` for every seed.

    Returns (seeds, 4) uint64 rows in the order of numpy's state struct
    on a little-endian machine: state low and high word, increment low and
    high word.
    """
    entropy = np.stack([seeds & np.uint64(_MASK32),
                        seeds >> np.uint64(32)], axis=1)
    # PCG64(seed) takes four 64-bit words (initial state and increment,
    # high word first) from SeedSequence(seed).generate_state(8).
    words = _seed_sequence_state(entropy, 8).astype(np.uint64)
    state_hi, state_lo, inc_hi, inc_lo = (
        words[:, 0::2] | words[:, 1::2] << _SHIFT32).T
    # pcg64_srandom_r: increment 2 * inc + 1; state 0, one LCG step, add
    # the seed, one step: ((state + inc) * MULT + inc) mod 2**128.
    inc_hi = inc_hi << _ONE | inc_lo >> _SHIFT63
    inc_lo = inc_lo << _ONE | _ONE
    hi, lo = _add_wide(state_hi, state_lo, inc_hi, inc_lo)
    prod_hi, prod_lo = _mul_wide(lo, _PCG_MULT_LO)
    prod_hi += lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    hi, lo = _add_wide(prod_hi, prod_lo, inc_hi, inc_lo)
    return np.stack([lo, hi, inc_lo, inc_hi], axis=1)


def _state_struct(bit_generator: np.random.PCG64):
    """ctypes views of a PCG64's state words and of its cached half-word.

    numpy's ``pcg64_state`` holds a pointer to the 128-bit state and
    increment, then ``has_uint32`` and ``uinteger`` in one 64-bit word.
    """
    address = bit_generator.ctypes.state_address
    words = ctypes.c_void_p.from_address(address).value
    return ((ctypes.c_uint64 * 4).from_address(words),
            ctypes.c_uint64.from_address(address + 8))


@functools.cache
def _check_layout() -> None:
    """Raise unless numpy's PCG64 state struct has the layout used here.

    Reads a used generator's struct and compares it with the public
    ``state``, then writes one known initial state into it and reads that
    back.  The layout is numpy's, so one check serves the process.
    """
    bit_generator = np.random.PCG64(0)
    used = bit_generator.state
    used["has_uint32"], used["uinteger"] = 1, 0xDEADBEEF
    bit_generator.state = used
    state, inc = used["state"]["state"], used["state"]["inc"]
    words, cached = _state_struct(bit_generator)
    matches = (list(words) == [state & _MASK64, state >> 64,
                               inc & _MASK64, inc >> 64]
               and cached.value == 0xDEADBEEF << 32 | 1)
    if matches:
        words[:] = _initial_states(
            np.array([_CHECK_SEED], dtype=np.uint64))[0].tolist()
        cached.value = 0
        matches = bit_generator.state == np.random.PCG64(_CHECK_SEED).state
    if not matches:
        raise RuntimeError(
            f"numpy {np.__version__} lays out the PCG64 state struct "
            f"differently from what cloudmimo.streams writes; its trial "
            f"streams cannot be reset on this numpy")
