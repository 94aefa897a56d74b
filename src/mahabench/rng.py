"""Deterministic, portable random number generation.

Everything random in this package flows through :class:`Rng`, a counter-mode
splitmix64 generator.  The i-th raw output for a given seed is::

    mix64((seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2**64)

where ``mix64`` is the splitmix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

(all arithmetic modulo 2**64).  Because the stream is a pure function of
(seed, counter), draws are reproducible byte-for-byte across runs and
platforms; derived quantities (uniforms, Box-Muller normals) are IEEE-754
doubles and reproduce exactly wherever libm is correctly rounded.

Derived streams are decorrelated by reseeding:
``child = mix64(seed XOR mix64(tag + GOLDEN))``, folding one 64-bit tag at a
time.  String tags are hashed with FNV-1a (64-bit).
"""

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U64 = np.uint64
_INV_2_53 = float(2.0**-53)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a fresh uint64 array, in place; returns it."""
    z ^= z >> _U64(30)
    z *= _U64(_MIX1)
    z ^= z >> _U64(27)
    z *= _U64(_MIX2)
    z ^= z >> _U64(31)
    return z


def mix64(z: int) -> int:
    """splitmix64 finalizer on a Python int (mod 2**64)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of a string, used to turn names into stream tags."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return h


def derive_seed(seed: int, *tags: int | str) -> int:
    """Fold tags into ``seed`` to produce an independent child seed."""
    s = seed & MASK64
    for tag in tags:
        t = fnv1a64(tag) if isinstance(tag, str) else tag & MASK64
        s = mix64(s ^ mix64((t + GOLDEN) & MASK64))
    return s


def derive_seeds(seed, *tags) -> np.ndarray:
    """``derive_seed`` over arrays: ``seed`` and each integer tag may be an
    int or an array of them, broadcast together, and the result is the
    uint64 array of child seeds with the bits ``derive_seed`` gives each
    element.  A string tag is hashed once for the whole array."""
    s = _uint64(seed)
    with np.errstate(over="ignore"):  # 0-d operands compute as numpy scalars, which warn
        for tag in tags:
            t = np.uint64(fnv1a64(tag)) if isinstance(tag, str) else _uint64(tag)
            s = _mix64_array(s ^ _mix64_array(t + _U64(GOLDEN)))
    return np.asarray(s, dtype=np.uint64)


def _uint64(value) -> np.ndarray:
    """An int, or an array of ints, as uint64 mod 2**64."""
    if isinstance(value, int):
        value &= MASK64
    return np.asarray(value).astype(np.uint64)


class Rng:
    """Counter-mode splitmix64 stream, or a stack of them.

    Instances are cheap; the whole state is (seed, counter).  All drawing
    methods consume a documented number of raw 64-bit outputs, so a given
    call sequence is reproducible by construction.

    ``Rng(seeds)`` with an array of seeds in [0, 2**64) runs one stream per
    seed, each with its own counter: every draw gains the seeds' leading
    axes, and its row i is the bits the same draw gives from
    ``Rng(seeds[i])``.  ``raw`` and ``normal`` take ``rows``, an index
    array or a boolean mask over the seeds, to draw for those streams
    alone; only their counters advance, so every stream still sees the
    draws it would see on its own.  ``below`` and ``permutation`` take a
    single seed.
    """

    def __init__(self, seed):
        seeds = np.asarray(seed if np.ndim(seed) else int(seed) & MASK64, dtype=np.uint64)
        self._seeds = seeds[..., None]  # one stream per row of a draw
        # a single seed's counter is an int, a stack's an array shaped like its seeds
        self._counter = np.zeros(seeds.shape, dtype=np.uint64) if seeds.ndim else 0

    def raw(self, n: int, rows=None) -> np.ndarray:
        """Next ``n`` raw uint64 outputs of every stream, or of the streams
        picked by ``rows``."""
        if isinstance(self._counter, int):  # one seed
            if rows is not None:
                raise ValueError("rows picks streams of a stack of seeds")
            start = self._counter + 1
            self._counter += n
            # uint64 array arithmetic wraps modulo 2**64 without a warning
            z = np.arange(start, start + n, dtype=np.uint64)
            z *= _U64(GOLDEN)
            return _mix64_array(z + self._seeds)
        picked = ... if rows is None else rows
        # stream s's i-th output mixes seed_s + (counter_s + i) * GOLDEN
        bases = self._counter[picked][..., None] * _U64(GOLDEN) + self._seeds[picked]
        self._counter[picked] += _U64(n)
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _U64(GOLDEN)
        return _mix64_array(z + bases)

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1), 53-bit resolution."""
        return (self.raw(n) >> _U64(11)).astype(np.float64) * _INV_2_53

    def normal(self, shape, rows=None) -> np.ndarray:
        """Standard normals of the given shape via Box-Muller pairs, for
        every stream or for the streams picked by ``rows``."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        count = math.prod(shape)
        pairs = (count + 1) // 2
        # the first `pairs` raw outputs give u1 in (0, 1], so log() is
        # finite, and the next `pairs` give u2 in [0, 1)
        bits = (self.raw(2 * pairs, rows) >> _U64(11)).astype(np.float64)
        u1 = (bits[..., :pairs] + 1.0) * _INV_2_53
        u2 = bits[..., pairs:] * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :count]
        return z.reshape(bits.shape[:-1] + shape)

    def below(self, bound: int) -> int:
        """One integer uniform on {0, ..., bound-1}."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        u = float(self.uniform(1)[0])
        return min(int(u * bound), bound - 1)

    def integers(self, lo: int, hi: int, n: int) -> np.ndarray:
        """``n`` integers uniform on the inclusive range {lo, ..., hi}."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        vals = np.minimum((self.uniform(n) * span).astype(np.int64), span - 1)
        return vals + lo

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
