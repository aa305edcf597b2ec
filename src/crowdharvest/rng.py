"""Deterministic random-stream derivation.

Every stochastic routine takes an explicit integer seed and derives
independent substreams with :func:`substream`. The scheme is a counter
scheme built on ``numpy.random.SeedSequence``: the base seed is the
entropy and the path elements form the spawn key, so

    substream(seed, j, t)

is the same generator no matter which process, thread, or iteration
order asks for it. Batch drivers key one substream per (grid index,
trial index) and therefore produce results that are independent of the
parallelism degree.

String path elements are allowed for readability; they are mapped to
integers with SHA-256, which is stable across platforms and runs
(unlike the builtin ``hash``).

Batch routines that need thousands of substreams use
:func:`substream_columns`, which derives the PCG64 states of many keys at
once: each of ``seed, *path`` is a scalar or a uint64 column (a path
column below 2**32), and the SeedSequence mixing and the 128-bit PCG64
seeding step run on numpy columns. ``_raw_outputs`` continues the
streams in the same way, giving the first raw 64-bit outputs of every
state without a generator, and :func:`state_dict` turns one state into a
``bit_generator.state`` that re-points a generator to it; ``_reseat``
re-points one through a dict that it reuses, given the state's
``_state_words``. :func:`substream` stays the definition: every batch
checks its first key against it.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

from .errors import SimulationError

__all__ = ["substream", "substream_columns", "state_dict", "path_key"]

# numpy.random.SeedSequence constants (pool of 4 uint32 words) and the
# PCG64 default multiplier.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# A batch of PCG64 states: (state high, state low, inc high, inc low) uint64 columns.
StateColumns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def path_key(element: int | str) -> int:
    """Map one path element to a non-negative 64-bit spawn-key entry."""
    if isinstance(element, (int, np.integer)):
        if element < 0:
            raise ValueError(f"substream path elements must be non-negative, got {element}")
        return int(element)
    digest = hashlib.sha256(element.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Return the generator for ``seed`` at the given derivation path."""
    key = tuple(path_key(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


def _words(n: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int, as SeedSequence splits it."""
    if n < 0:
        raise ValueError(f"substream seeds must be non-negative, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _entropy(columns: Sequence) -> np.ndarray:
    """SeedSequence's assembled entropy of every row, as an (m, words) uint32 table.

    ``columns`` is ``(seed, *path)``; each is a scalar or a uint64 array of
    one common length m. The entropy is the seed's words zero-padded to the
    pool size, then the spawn-key words. (SeedSequence pads only when there
    is a spawn key; padding an unspawned seed is a no-op, since missing pool
    words are hashed as zeros.) A seed column is below 2**64, so it is
    always the words ``[lo, hi, 0, 0]``; an array path element is one word,
    so its values must lie below 2**32. Scalars keep their own words.
    """
    m = next((c.size for c in columns if isinstance(c, np.ndarray)), 1)
    words: list = []  # uint64 arrays and ints, one per word
    for pos, element in enumerate(columns):
        if isinstance(element, np.ndarray):
            if element.dtype != np.uint64 or element.shape != (m,):
                raise ValueError("substream key columns must be uint64 arrays of one length")
            if pos and m and element.max() > _MASK32:
                raise ValueError(
                    f"substream path columns must lie below 2**32, got {element.max()}")
            words += [element] if pos else [element & _MASK32, element >> 32, 0, 0]
        elif pos:
            words += _words(path_key(element))
        else:
            seed_words = _words(int(element))
            words += seed_words + [0] * (_POOL_SIZE - len(seed_words))
    table = np.empty((m, len(words)), dtype=np.uint32)
    for k, word in enumerate(words):
        table[:, k] = word
    return table


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The running hash constants init * mult**k (mod 2**32), k < count, as a column."""
    out = [init]
    for _ in range(count - 1):
        out.append((out[-1] * mult) & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


_XSHIFT = np.uint32(16)
_MIX_L = np.uint32(_MIX_MULT_L)
_MIX_R = np.uint32(_MIX_MULT_R)


def _hashmix(value: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix: xor with the running constant, advance it, multiply."""
    value = (value ^ lo) * hi
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _XSHIFT)


def _mulhi(a: np.ndarray, b) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b (uint64), on 32-bit limbs."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = (a_lo * b_lo >> 32) + (lh & _MASK32) + (hl & _MASK32)
    return a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)


def _step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One PCG64 step, state * multiplier + inc (mod 2**128), on (hi, lo) columns."""
    m_hi, m_lo = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _MASK64)
    prod_hi = _mulhi(lo, m_lo) + lo * m_hi + hi * m_lo
    out_lo = lo * m_lo + inc_lo
    return prod_hi + inc_hi + (out_lo < inc_lo), out_lo


def _pool_states(entropy: np.ndarray) -> StateColumns:
    """PCG64 state columns for the rows of an (m, L >= 4) uint32 entropy block.

    SeedSequence's hashmix calls advance one running constant, so a call's
    constants depend only on its position; each loop of ``mix_entropy``
    over the destination words is one numpy expression over (words, keys).
    """
    extra = entropy.shape[1] - _POOL_SIZE
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE**2 + _POOL_SIZE * extra + 1)
    pool = _hashmix(entropy[:, :_POOL_SIZE].T, consts[:_POOL_SIZE], consts[1 : _POOL_SIZE + 1])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dsts = [dst for dst in range(_POOL_SIZE) if dst != src]
        n = len(dsts)
        pool[dsts] = _mix(pool[dsts], _hashmix(pool[src], consts[k : k + n], consts[k + 1 : k + n + 1]))
        k += n
    if extra:
        # every remaining entropy word is mixed into every pool word
        steps = consts[k:, 0]
        hashed = _hashmix(
            entropy[:, _POOL_SIZE:].T[:, None, :],
            steps[:-1].reshape(extra, _POOL_SIZE, 1),
            steps[1:].reshape(extra, _POOL_SIZE, 1),
        )
        for word in hashed:
            pool = _mix(pool, word)

    # generate_state(4, uint64): 8 uint32 words cycled from the pool, paired
    # little-endian into (seed high, seed low, inc high, inc low).
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], consts[:-1], consts[1:])
    s_hi, s_lo, i_hi, i_lo = words[1::2].astype(np.uint64) << 32 | words[0::2]
    # pcg64_set_seed: state 0, inc = 2 * initseq + 1, step, add initstate, step
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo = inc_lo + s_lo
    return (*_step(inc_hi + s_hi + (lo < inc_lo), lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _raw_outputs(states: StateColumns, n: int) -> np.ndarray:
    """The first ``n`` raw outputs (``random_raw``) of every state, as (m, n) uint64.

    PCG64 steps its state and returns the XSL-RR output of the new state:
    the xor of its halves rotated right by its top 6 bits.
    """
    hi, lo, inc_hi, inc_lo = states
    out = np.empty((hi.size, n), dtype=np.uint64)
    for k in range(n):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        x, r = hi ^ lo, hi >> 58
        out[:, k] = x >> r | x << (64 - r & 63)
    return out


def state_dict(state_hi, state_lo, inc_hi, inc_lo) -> dict:
    """``bit_generator.state`` of the PCG64 state given by its 64-bit halves."""
    state, inc = int(state_hi) << 64 | int(state_lo), int(inc_hi) << 64 | int(inc_lo)
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _state_words(states: StateColumns) -> list[tuple[int, int]]:
    """The 128-bit ``(state, inc)`` of every row, the words :func:`state_dict` writes."""
    hi, lo, inc_hi, inc_lo = (c.tolist() for c in states)
    return [(h << 64 | l, ih << 64 | il) for h, l, ih, il in zip(hi, lo, inc_hi, inc_lo)]


def _reseat(gen: np.random.Generator, seat: dict, state: int, inc: int) -> None:
    """Re-point ``gen`` to the PCG64 ``state`` and ``inc`` through ``seat``.

    ``seat`` is a dict from :func:`state_dict` that the caller keeps for many
    states: its ``state`` and ``inc`` are overwritten in place, and numpy's
    setter copies them into the generator, so the generator reads nothing
    from the dict afterwards. Two threads must not write one seat at once;
    the crowd kernel keeps one seat per call, and a forked share of its
    trials writes its own copy.
    """
    words = seat["state"]
    words["state"], words["inc"] = state, inc
    gen.bit_generator.state = seat


def substream_columns(seed, *path) -> StateColumns:
    """PCG64 states of ``substream(seed, *path)`` for every row of key columns.

    Each of ``seed, *path`` is a scalar (an int seed, an int or str path
    element) or a uint64 array; the arrays share one length m, which is the
    number of rows. A path column, one spawn-key word per row, must lie
    below 2**32, or :class:`ValueError` is raised. Returns the
    ``(state high, state low, inc high, inc low)`` uint64 columns; pass a
    row to :func:`state_dict` to re-point a generator to it. The first row
    is checked against :func:`substream`; a mismatch (a numpy release that
    seeds differently) raises :class:`SimulationError`.
    """
    columns = (seed, *path)
    out = _pool_states(_entropy(columns))
    if out[0].size:
        key = [int(c[0]) if isinstance(c, np.ndarray) else c for c in columns]
        if state_dict(*(c[0] for c in out)) != substream(*key).bit_generator.state:
            raise SimulationError(
                f"batched substream state for key {tuple(key)!r} differs from substream(); "
                "numpy's SeedSequence or PCG64 seeding has changed"
            )
    return out

