"""Reproducible random-number-generator management.

The paper's model assumes correct workers draw i.i.d. samples; in the
simulator this is realized by giving every worker an *independent* RNG
stream spawned from a single root seed.  ``numpy``'s ``SeedSequence``
spawning guarantees streams are statistically independent while the whole
experiment stays reproducible from one integer seed.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError

__all__ = ["as_generator", "spawn_generators", "seed_sequence_state"]

SeedLike = int | np.random.SeedSequence | np.random.Generator | None

# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx):
# entropy is mixed into a pool of 4 uint32 words with hashmix/mix, then
# generate_state() hashes the pool cyclically into the output words.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a ``numpy.random.Generator``.

    Accepts an integer seed, a ``SeedSequence``, an existing ``Generator``
    (returned unchanged) or ``None`` (fresh OS-entropy generator).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Create ``count`` independent generators derived from one seed.

    The streams are independent in the ``SeedSequence.spawn`` sense: no
    two of them share state, and the full list is reproducible from the
    root seed.  Spawning is *sequential*: the first k children of
    ``spawn_generators(seed, n)`` are identical for every n >= k, so
    consumers may grow their stream count without perturbing existing
    streams.

    Every ``SeedLike`` alternative is supported: an int, a
    ``SeedSequence``, ``None`` (fresh OS entropy), or an existing
    ``Generator`` — children then spawn from the generator's own seed
    sequence (``Generator.spawn`` where numpy provides it, its bit
    generator's ``seed_seq`` otherwise).  Anything else raises
    :class:`ConfigurationError` naming the accepted types instead of
    leaking ``SeedSequence``'s raw ``TypeError``.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        if hasattr(seed, "spawn"):  # numpy >= 1.25
            return list(seed.spawn(count))
        root = seed.bit_generator.seed_seq
        if not isinstance(root, np.random.SeedSequence):
            raise ConfigurationError(
                f"cannot spawn from a Generator whose bit generator was "
                f"seeded without a SeedSequence "
                f"(got {type(root).__name__}); seed it from an int or "
                f"SeedSequence instead"
            )
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    elif seed is None or isinstance(seed, (int, np.integer)):
        root = np.random.SeedSequence(seed)
    else:
        raise ConfigurationError(
            f"seed must be an int, numpy SeedSequence, numpy Generator or "
            f"None, got {type(seed).__name__}"
        )
    return [np.random.default_rng(child) for child in root.spawn(count)]


def _int_words(value: int) -> list[int]:
    """``value``'s little-endian uint32 words, as ``SeedSequence`` splits
    an integer entropy input (zero is one word)."""
    words = [value & _MASK32]
    value >>= 32
    while value > 0:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    """``SeedSequence``'s ``hashmix``; returns the mixed words and the
    advanced hash constant (which is independent of the data)."""
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pool_state(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(2, uint64)`` over a batch:
    ``entropy`` holds one ``(m,)`` uint32 array per entropy word."""
    hash_const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        source = (
            entropy[i]
            if i < len(entropy)
            else np.zeros_like(entropy[0])
        )
        word, hash_const = _hashmix(source, hash_const)
        pool.append(word)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                word, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], word)
    for extra in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            word, hash_const = _hashmix(extra, hash_const)
            pool[i_dst] = _mix(pool[i_dst], word)

    hash_const = _INIT_B
    halves = []
    for i in range(4):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        halves.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return np.stack(
        [
            halves[0] | (halves[1] << np.uint64(32)),
            halves[2] | (halves[3] << np.uint64(32)),
        ],
        axis=1,
    )


def seed_sequence_state(entropy: int, keys: np.ndarray) -> np.ndarray:
    """Vectorized ``SeedSequence`` hashing of integer-tuple keys.

    Row ``r`` of the ``(N, 2)`` uint64 result equals
    ``np.random.SeedSequence((entropy, *keys[r])).generate_state(2,
    np.uint64)`` bit for bit — the counter-based draw randomized delay
    schedules key on ``(entropy, worker, round)``, computed for a whole
    block of keys in one pass instead of one ``SeedSequence`` per key.

    ``keys`` is an ``(N, k)`` array of non-negative integers.
    ``SeedSequence`` splits each integer into as many uint32 words as it
    needs, so the entropy length depends on whether a key is ``>= 2**32``;
    rows are grouped by that word layout and each group is hashed on its
    own.  Pure: a function of its arguments only.
    """
    entropy = int(entropy)
    keys = np.asarray(keys)
    if keys.ndim != 2:
        raise DimensionMismatchError(
            f"keys must be an (N, k) array, got shape {keys.shape}"
        )
    if keys.dtype.kind not in "iu":
        raise ConfigurationError(
            f"keys must be integers, got dtype {keys.dtype}"
        )
    if entropy < 0 or (keys.size and keys.min() < 0):
        raise ConfigurationError("entropy and keys must be non-negative")
    num_keys = keys.shape[0]
    result = np.empty((num_keys, 2), dtype=np.uint64)
    if num_keys == 0:
        return result
    wide_keys = keys.astype(np.uint64)
    low = (wide_keys & np.uint64(_MASK32)).astype(np.uint32)
    high = (wide_keys >> np.uint64(32)).astype(np.uint32)
    wide = high != 0
    layouts = (wide.astype(np.int64) << np.arange(keys.shape[1])).sum(axis=1)
    entropy_words = _int_words(entropy)
    for layout in np.unique(layouts):
        rows = layouts == layout
        count = int(rows.sum())
        columns = [np.full(count, word, dtype=np.uint32) for word in entropy_words]
        for j in range(keys.shape[1]):
            columns.append(low[rows, j])
            if (int(layout) >> j) & 1:
                columns.append(high[rows, j])
        result[rows] = _pool_state(columns)
    return result
