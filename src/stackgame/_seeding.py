"""numpy's SeedSequence spawning and PCG64 seeding, vectorised over the children.

path_normals gives path i the stream default_rng(SeedSequence(seed).spawn(n)[i]).
Building n SeedSequence objects, n hashes and n PCG64 generators one by one
cost more than the draws.  spawn_states computes every child's PCG64 state
on arrays, a block of children at a time: child_seed_words takes numpy's
own pool of SeedSequence(seed) and restates the spawn-key round and the
output hash, and pcg64_states restates PCG64's seeding step.  state_setter
then puts one child's state into a single PCG64 that draws every row, so
numpy's own stream and normal sampler produce every value.
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
_SPAWN_ROWS = 4096  # children seeded at once (spawn_states)


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


def child_seed_words(seed: int, keys: np.ndarray) -> list[np.ndarray]:
    """PCG64 seed words of the children of SeedSequence(seed) with spawn keys keys.

    keys is a uint32 array.  The result is four uint64 arrays, the columns
    of each child's generate_state(4, uint64), which PCG64 reads as its
    seed (high word first) and its stream selector.  Child i hashes the
    entropy words of seed (little-endian 32-bit words, zero-padded to the
    pool size) followed by its spawn key i.  Every round before the key's
    sees the same words for all children, so numpy's own pool of
    SeedSequence(seed) is where they leave it, after 16 hash calls and 4
    more per word past the pool's 4.  Only the spawn-key round and the
    output hash are restated here, once on uint32 arrays over all children.
    """
    n_words = max(1, -(-seed.bit_length() // 32))
    calls = itertools.count(_POOL_WORDS**2 + _POOL_WORDS * max(0, n_words - _POOL_WORDS))
    pool = np.random.SeedSequence(seed).pool.tolist()
    for dst in range(_POOL_WORDS):
        pool[dst] = _mix32(pool[dst], _hash32(keys, _INIT_A, _MULT_A, next(calls)))
    # generate_state(4, uint64): eight output words cycling over the pool,
    # paired little-endian into 64-bit words.
    state = [_hash32(pool[w % _POOL_WORDS], _INIT_B, _MULT_B, w).astype(np.uint64)
             for w in range(8)]
    return [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]


# PCG64's 128-bit LCG multiplier (O'Neill's PCG_DEFAULT_MULTIPLIER_128) in 64-bit limbs.
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_ONE, _HALF, _LOW = np.uint64(1), np.uint64(32), np.uint64(_MASK32)


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of each a * b, from four 32 x 32-bit partial products."""
    a1, a0, b1, b0 = a >> _HALF, a & _LOW, b >> _HALF, b & _LOW
    lh, hl = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _HALF) + (lh & _LOW) + (hl & _LOW)  # below 3 * 2^32
    return a1 * b1 + (lh >> _HALF) + (hl >> _HALF) + (mid >> _HALF)


def pcg64_states(s_hi, s_lo, i_hi, i_lo) -> np.ndarray:
    """The PCG64 states that seed words (s, i) give, as an (n, 4) uint64 array.

    numpy's PCG64 seeds like O'Neill's pcg_setseq_128_srandom_r: with
    inc = 2i + 1, the state is 0 stepped once, plus s, stepped once again,
    where a step is state * M + inc mod 2^128; so state = (inc + s) M + inc.
    This runs on 64-bit limbs over all rows at once.  Row r holds the
    limbs state_lo, state_hi, inc_lo, inc_hi: the memory of numpy's
    {state, inc} pair of native 128-bit ints on a little-endian machine.
    """
    inc_hi, inc_lo = i_hi << _ONE | i_lo >> np.uint64(63), i_lo << _ONE | _ONE
    x_lo = inc_lo + s_lo
    x_hi = inc_hi + s_hi + (x_lo < inc_lo)
    p_lo = x_lo * _MULT_LO
    p_hi = _mulhi64(x_lo, _MULT_LO) + x_lo * _MULT_HI + x_hi * _MULT_LO
    state_lo = p_lo + inc_lo
    return np.stack([state_lo, p_hi + inc_hi + (state_lo < p_lo), inc_lo, inc_hi], axis=1)


def spawn_states(seed: int, n: int) -> np.ndarray:
    """pcg64_states of SeedSequence(seed).spawn(n)'s PCG64s, _SPAWN_ROWS children at a time.

    Seeded all at once, 40,000 children made uint64 temporaries of 320 KB,
    and the heap that glibc kept from them raised the peak RSS of a process
    that then ran mf-single-pass's defect and verify by about 4 MiB.  The
    temporaries of a block are 32 KB.
    """
    states = np.empty((n, 4), dtype=np.uint64)
    for lo in range(0, n, _SPAWN_ROWS):
        keys = np.arange(lo, min(lo + _SPAWN_ROWS, n), dtype=np.uint32)
        states[lo : lo + len(keys)] = pcg64_states(*child_seed_words(seed, keys))
    return states


def _state_ints(limbs: np.ndarray) -> dict:
    """One row of pcg64_states as the Python ints of PCG64's public state."""
    lo_state, hi_state, lo_inc, hi_inc = (int(limb) for limb in limbs)
    return {"state": hi_state << 64 | lo_state, "inc": hi_inc << 64 | lo_inc}


def _reads_back(bits, limbs: np.ndarray) -> bool:
    """True if bits' public state is the one that row limbs of pcg64_states stands for."""
    return bits.state["state"] == _state_ints(limbs)


def state_setter(bits, states: np.ndarray, first: int):
    """(put, take): put(i) makes the PCG64 bits continue from row i of states,
    and take(i) writes where bits has got to back into row i.

    put copies the row's 32 bytes into the generator's {state, inc} pair,
    which the first word of the struct at bits.ctypes.state_address points
    to, and take copies them back.  That layout is numpy's own, so it is
    checked here: row first is written, and unless bits' public state then
    reads it back exactly (a build that emulates 128-bit ints stores the
    high limb first), both go through the public state instead, which gives
    the same stream more slowly.  states must be C-contiguous and writable.
    """
    import ctypes  # only the draw needs it

    pair = ctypes.c_void_p.from_address(bits.ctypes.state_address).value
    target = memoryview((ctypes.c_char * 32).from_address(pair)).cast("B")
    source = memoryview(states).cast("B")

    def in_place(i: int, bits=bits) -> None:  # holding bits keeps target's memory alive
        target[:] = source[32 * i : 32 * i + 32]

    def take_in_place(i: int, bits=bits) -> None:
        source[32 * i : 32 * i + 32] = target

    def public(i: int) -> None:
        bits.state = {"bit_generator": "PCG64", "state": _state_ints(states[i]),
                      "has_uint32": 0, "uinteger": 0}

    def take_public(i: int) -> None:
        state = bits.state["state"]
        states[i] = [value >> shift & (1 << 64) - 1
                     for value in (state["state"], state["inc"]) for shift in (0, 64)]

    in_place(first)
    return (in_place, take_in_place) if _reads_back(bits, states[first]) else (public, take_public)
