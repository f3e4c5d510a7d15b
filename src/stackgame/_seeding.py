"""numpy's SeedSequence spawning, vectorised over the children.

path_normals gives path i the stream default_rng(SeedSequence(seed).spawn(n)[i]).
Building n SeedSequence objects and n hashes one by one cost more than the
draws; child_seed_words computes the same PCG64 seed words for all children
in one pass, and SeedWords hands one child's words to numpy's own PCG64.
"""

import itertools

import numpy as np

# numpy's SeedSequence hash (O'Neill's seed_seq design): its pool size, the
# two multiplier chains of its mixing and output hashes, and its mix weights.
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash32(value, init: int, mult: int, call: int):
    """The call-th step of a SeedSequence hash chain applied to value.

    value is a Python int below 2^32 or a uint32 array (wrapping arithmetic);
    the chain's constants depend only on how many calls came before.
    """
    const = init * pow(mult, call, 1 << 32)
    value = ((value ^ (const & _MASK32)) * (const * mult & _MASK32)) & _MASK32
    return value ^ value >> 16


def _mix32(x, y):
    """SeedSequence's mix of pool word x with hashed word y (ints or uint32 arrays)."""
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def child_seed_words(seed: int, n: int) -> np.ndarray:
    """PCG64 seed words of SeedSequence(seed).spawn(n), as an (n, 4) uint64 array.

    Child i hashes the entropy words of seed (little-endian 32-bit words,
    zero-padded to the pool size) followed by its spawn key i.  Every round
    before the last one sees the same words for all children, so it runs
    once on Python ints; the spawn-key round and the output hash then run
    once on uint32 arrays over all children.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_WORDS - len(words))
    entropy = words + [np.arange(n, dtype=np.uint32)]
    calls = itertools.count()

    def mixin(value):
        return _hash32(value, _INIT_A, _MULT_A, next(calls))

    pool = [mixin(word) for word in entropy[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix32(pool[dst], mixin(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix32(pool[dst], mixin(word))
    # generate_state(4, uint64): eight output words cycling over the pool,
    # paired little-endian into 64-bit words.
    state = [_hash32(pool[w % _POOL_WORDS], _INIT_B, _MULT_B, w).astype(np.uint64)
             for w in range(8)]
    return np.stack([lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])],
                    axis=1)


class SeedWords(np.random.bit_generator.ISeedSequence):
    """Seed sequence whose PCG64 state request, generate_state(4, uint64), is given."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words
