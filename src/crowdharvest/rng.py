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
:func:`substream_states`, which derives the PCG64 states of many keys at
once and lets one generator be re-pointed from key to key by assigning
``bit_generator.state``. :func:`substream` stays the definition: every
batch checks its first key against it.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

from .errors import SimulationError

__all__ = ["substream", "substream_states", "path_key"]

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
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


def _entropy(seed: int, path: Sequence[int | str], memo: dict) -> list[int]:
    """SeedSequence's assembled entropy: seed words zero-padded to the pool
    size, then the spawn-key words. (SeedSequence pads only when there is a
    spawn key; padding an unspawned seed is a no-op, since missing pool
    words are hashed as zeros.) ``memo`` caches the words of path
    elements, which repeat across a batch."""
    words = _words(int(seed))
    words += [0] * (_POOL_SIZE - len(words))
    for element in path:
        element_words = memo.get(element)
        if element_words is None:
            element_words = memo[element] = _words(path_key(element))
        words += element_words
    return words


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


def _pool_states(entropy: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 (state, inc) for each row of an (m, L >= 4) uint32 entropy block.

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
    w64 = (words[1::2].astype(np.uint64) << np.uint64(32) | words[0::2]).tolist()
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(*w64):
        # pcg64_set_seed: state 0, inc = 2 * initseq + 1, step, add initstate, step
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
        out.append((state, inc))
    return out


def substream_states(keys: Sequence[tuple[int | str, ...]]) -> list[dict]:
    """PCG64 states of ``substream(*key)`` for every ``(seed, *path)`` key.

    SeedSequence's mixing runs on uint32 numpy columns, one block per
    entropy length, and the 128-bit seeding step on Python ints. Assign a
    state to a generator's ``bit_generator.state`` to make it draw exactly
    what ``substream(*key)`` draws. The first key is checked against
    :func:`substream`; a mismatch (a numpy release that seeds differently)
    raises :class:`SimulationError`.
    """
    if not keys:
        return []
    memo: dict = {}
    entropies = [_entropy(key[0], key[1:], memo) for key in keys]
    groups: dict[int, list[int]] = {}
    for i, words in enumerate(entropies):
        groups.setdefault(len(words), []).append(i)
    pcg: list[tuple[int, int] | None] = [None] * len(keys)
    for rows in groups.values():
        block = np.array([entropies[i] for i in rows], dtype=np.uint32)
        for i, pair in zip(rows, _pool_states(block)):
            pcg[i] = pair
    states = [
        {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        for state, inc in pcg
    ]
    if states[0] != substream(*keys[0]).bit_generator.state:
        raise SimulationError(
            f"batched substream state for key {keys[0]!r} differs from substream(); "
            "numpy's SeedSequence or PCG64 seeding has changed"
        )
    return states
