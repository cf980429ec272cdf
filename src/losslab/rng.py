"""Deterministic random number generation.

Every stochastic choice in this package flows through :class:`Rng`.  Word
i (0-based) of ``Rng(seed)`` is ``mix64(seed + (i + 1) * GAMMA mod 2**64)``:
the splitmix64 sequence started from state ``seed`` (Steele, Lea & Flood
2014), read as a counter.  Word i depends on i alone, so a generator's state
is one position, n words of R generators are one uint64 array expression,
and the same seed gives bit-identical words on every run and platform.
Substreams are derived from the seed, not the position, so
``rng.split("probes", 3)`` is reproducible however far the parent has read.

Every draw is an array draw that starts at the first word not yet handed
out.  The rejection samplers ``integers`` and ``gamma`` draw for all n
entries first, then redraw only the rejected entries, in index order,
round by round; ``integers`` is the package's one masked rejection rule.
"""

from __future__ import annotations

import math
import struct
from _blake2 import blake2b  # hashlib.blake2b itself, without loading OpenSSL
from collections.abc import Sequence

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_INV53 = 2.0 ** -53
GAMMA = 0x9E3779B97F4A7C15  # splitmix64's increment, 2**64 over the golden ratio
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_PACKED_MAX = 1 << 11  # a permutation this long packs key and index into one word

SeedPart = int | float | str | bool


def derive_seed(base: int, *key: SeedPart) -> int:
    """Mix a base seed with a tag tuple into a new 64-bit seed.

    The base and every int part are taken mod 2**64, as ``Rng`` takes
    its seed.  Parts are hashed by value with a type tag, so
    ``derive_seed(s, 2)`` and ``derive_seed(s, 2.0)`` differ, and string
    tags never collide.
    """
    h = blake2b(digest_size=8)
    h.update((int(base) & _MASK64).to_bytes(8, "little"))
    for part in key:
        if isinstance(part, bool):
            h.update(b"b" + bytes([part]))
        elif isinstance(part, int):
            h.update(b"i" + (int(part) & _MASK64).to_bytes(8, "little"))
        elif isinstance(part, float):
            h.update(b"f" + struct.pack("<d", part))
        elif isinstance(part, str):
            raw = part.encode("utf-8")
            h.update(b"s" + len(raw).to_bytes(4, "little") + raw)
        else:
            raise ParameterError(f"unsupported seed part type: {type(part)!r}")
    return int.from_bytes(h.digest(), "little")


def _words(states: list[int], n: int) -> np.ndarray:
    """``(R, n)`` uint64: row r is the n splitmix64 outputs after state ``states[r]``."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(GAMMA)
    z = z + np.array(states, dtype=np.uint64)[:, None]  # uint64 arrays wrap mod 2**64
    t = z >> np.uint64(30)
    z ^= t
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def raw_outputs(rngs: Sequence["Rng"], n: int) -> np.ndarray:
    """``(R, n)`` raw 64-bit words; row r is what ``rngs[r]`` alone gives.

    Each generator advances exactly n words.
    """
    # word ``_pos`` of a generator is the output after state ``seed + _pos * GAMMA``
    out = _words([(r.seed + r._pos * GAMMA) & _MASK64 for r in rngs], n)
    for r in rngs:
        r._pos += n
    return out


def permutations(rngs: Sequence["Rng"], n: int) -> np.ndarray:
    """``(R, n)`` permutations of range(n); row r is ``rngs[r].permutation(n)``.

    Row r orders n uniform keys from ``rngs[r]``, ties by index.
    """
    keys = raw_outputs(rngs, n) >> np.uint64(11)  # the 53 bits a uniform keeps
    if n > _PACKED_MAX:
        return np.argsort(keys, axis=1, kind="stable")
    # key and index packed into one word are all distinct, so any sort gives
    # the stable order, and numpy's unstable sort is 5x faster than its stable one
    packed = (keys << np.uint64(11)) | np.arange(n, dtype=np.uint64)
    packed.sort(axis=1)
    return (packed & np.uint64(_PACKED_MAX - 1)).astype(np.intp)


class Rng:
    """A splitmix64 counter stream with the distribution helpers the lab needs."""

    __slots__ = ("seed", "_pos")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._pos = 0  # words handed out

    def split(self, *key: SeedPart) -> "Rng":
        """Independent substream keyed by value; position-independent."""
        return Rng(derive_seed(self.seed, *key))

    def _raw(self, n: int) -> np.ndarray:
        """n raw 64-bit words as a uint64 array."""
        return raw_outputs([self], n)[0]

    # -- distributions -------------------------------------------------

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), each from the top 53 bits of one word."""
        return (self._raw(n) >> np.uint64(11)) * _INV53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller; consumes ceil(n/2) pairs."""
        m = (n + 1) // 2
        u = self.uniforms(2 * m)
        r = np.sqrt(-2.0 * np.log1p(-u[:m]))
        ang = (2.0 * math.pi) * u[m:]
        z = np.empty(2 * m, dtype=np.float64)
        z[0::2] = r * np.cos(ang)
        z[1::2] = r * np.sin(ang)
        return z[:n]

    def integer(self, bound: int) -> int:
        """``integers(bound, 1)`` as a Python int; kept for the benchmark's floor timings."""
        return int(self.integers(bound, 1)[0])

    def integers(self, bound: int, n: int) -> np.ndarray:
        """n uniform integers in [0, bound) by rejection on ``(bound - 1).bit_length()``
        low bits: n words, then a word per entry still out of range, round by round."""
        if bound <= 0:
            raise ParameterError("bound must be positive")
        mask = np.uint64((1 << (int(bound) - 1).bit_length()) - 1)
        # compared as intp: a uint64 comparison pages in 64 KB more of numpy's code
        out = (self._raw(n) & mask).astype(np.intp)
        redo = np.flatnonzero(out >= bound)
        while redo.size:
            out[redo] = self._raw(redo.size) & mask
            redo = redo[out[redo] >= bound]
        return out

    def rademacher(self, n: int) -> np.ndarray:
        """n entries in {-1.0, +1.0}, one generator draw per sign."""
        if n < 1:
            raise ParameterError("rademacher needs n >= 1")
        signs = self._raw(n) >> np.uint64(63)
        return 2.0 * signs - 1.0

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n) by sorting random keys."""
        return permutations([self], n)[0]

    def choose(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), returned in ascending order."""
        if not 0 <= k <= n:
            raise ParameterError(f"cannot choose {k} from {n}")
        return np.sort(self.permutation(n)[:k])

    def gamma(self, alpha: float, n: int) -> np.ndarray:
        """n draws from Gamma(alpha, 1) by the Marsaglia-Tsang squeeze method.

        Each round draws ``normals(k)``, then ``uniforms(k)``, for the k entries
        still pending.  Below alpha = 1, n draws at alpha + 1 come first, then
        n uniforms u, and each draw is scaled by ``(1 - u) ** (1 / alpha)``.
        """
        if alpha <= 0:
            raise ParameterError("gamma requires alpha > 0")
        if alpha < 1.0:
            g = self.gamma(alpha + 1.0, n)
            return g * (1.0 - self.uniforms(n)) ** (1.0 / alpha)
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(n)
        pending = np.arange(n)
        while pending.size:
            x = self.normals(pending.size)
            u = 1.0 - self.uniforms(pending.size)
            v = 1.0 + c * x
            v = v * v * v
            x2 = x * x
            ok = (v > 0.0) & (u < 1.0 - 0.0331 * (x2 * x2))
            rest = np.flatnonzero((v > 0.0) & ~ok)  # the squeeze missed: the exact test
            ok[rest] = np.log(u[rest]) < 0.5 * x2[rest] + d * (1.0 - v[rest] + np.log(v[rest]))
            out[pending[ok]] = d * v[ok]
            pending = pending[~ok]
        return out

    def beta(self, alpha: float, n: int) -> np.ndarray:
        """n draws from the symmetric Beta(alpha, alpha): x / (x + y) for
        ``x = gamma(alpha, n)``, then ``y = gamma(alpha, n)``, or 0.5 where both are 0."""
        if alpha <= 0:
            raise ParameterError("beta requires alpha > 0")
        x = self.gamma(alpha, n)
        s = x + self.gamma(alpha, n)
        return np.divide(x, s, out=np.full(n, 0.5), where=s > 0.0)
