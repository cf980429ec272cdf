"""Deterministic random number generation.

Every stochastic choice in this package flows through :class:`Rng`, a
xoshiro256++ generator seeded from splitmix64.  The algorithm is fixed:
given the same seed, the output stream is bit-identical across runs and
platforms, which is what makes replicate checksums and byte-identical
sweep outputs possible.  Substreams are derived from the *seed* (not the
current position), so ``rng.split("probes", 3)`` is reproducible no
matter how much the parent has already generated.

Long draws come from numpy lanes instead of a Python loop.  The xoshiro
state update is linear over GF(2) (Blackman & Vigna 2018), so the state
``j * STRIDE`` steps ahead of any state ``s`` is the XOR of the jumped
unit states of the bits set in ``s``.  One jump table, built on first use
by stepping the 256 unit states together as lanes, holds those jumped
states for the ``LANES`` offsets ``0, STRIDE, ..., (LANES-1) * STRIDE``
(256 x 4 x 64 words, 512 KB, about 10 ms to build).  :func:`raw_outputs`
expands each of R streams into lanes, one block of ``LANES * STRIDE``
(1,024) outputs per ``LANES`` lanes, steps all the lanes of a pass STRIDE
times as ``(4, lanes)`` uint64 arrays, and reads lane j's outputs as
stream positions ``j * STRIDE`` to ``j * STRIDE + STRIDE - 1``.  A pass
holds several blocks: the next block starts STRIDE steps past the
current block's last lane, one more jump with the same table, so a
1,024-step jump costs two table jumps and no stepping.  ``_PASS_LANES``
caps the lanes of one pass over all streams (4,096 lanes keep its
buffers near 2 MB); longer draws chain passes.  On 2 cores a one-block
draw costs about 105 us, and a 16,384- to 65,536-output draw 33-36 ns
per output, against 104 ns with one block per pass.  Every generator is
left at exactly the state its own n steps reach, so later scalar draws
continue the same stream.

Below ``CROSSOVER`` outputs over all streams the scalar loop is faster.
On 2 cores with numpy 2.4 a block cost 125-290 us almost whatever its
length (16 steps of 7 array operations, plus the expansion), and the
loop 0.8-1.0 us per output, so the two broke even between 160 and 330
outputs for 1, 2 and 4 streams.  ``CROSSOVER`` sits above every measured
break-even point.

Draws whose count is not known ahead (bitmask rejection, Marsaglia-Tsang
gamma) come from a :class:`BlockStream`, which hands out one
generator's outputs from blocks of at most ``WALK_BLOCK`` drawn by
``raw_outputs``, and applies ``Rng``'s own rules to them.
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

STRIDE = 16  # steps each lane takes per block
LANES = 64  # lanes per stream, so one block is 1,024 outputs
CROSSOVER = 384  # fewer outputs than this, over all streams, come from the scalar loop
_PASS_LANES = 4096  # most lanes stepped together in one pass, over all streams
WALK_BLOCK = 2048  # most outputs a BlockStream holds at once
_PACKED_MAX = 1 << 11  # a permutation this long packs key and index into one word

SeedPart = int | float | str | bool

_jump_table: np.ndarray | None = None


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def derive_seed(base: int, *key: SeedPart) -> int:
    """Mix a base seed with a tag tuple into a new 64-bit seed.

    Parts are hashed by value with a type tag, so ``derive_seed(s, 2)``
    and ``derive_seed(s, 2.0)`` differ, and string tags never collide
    with numeric ones.
    """
    h = blake2b(digest_size=8)
    h.update(int(base).to_bytes(8, "little", signed=False))
    for part in key:
        if isinstance(part, bool):
            h.update(b"b" + bytes([part]))
        elif isinstance(part, int):
            h.update(b"i" + int(part).to_bytes(8, "little", signed=True))
        elif isinstance(part, float):
            h.update(b"f" + struct.pack("<d", part))
        elif isinstance(part, str):
            raw = part.encode("utf-8")
            h.update(b"s" + len(raw).to_bytes(4, "little") + raw)
        else:
            raise ParameterError(f"unsupported seed part type: {type(part)!r}")
    return int.from_bytes(h.digest(), "little")


def _advance(states: np.ndarray, t: np.ndarray) -> None:
    """Fill ``states[1:]`` of a ``(steps + 1, 4, N)`` array by stepping row 0's N lanes."""
    for a, b in zip(states[:-1], states[1:]):
        np.bitwise_xor(a[2:], a[:2], out=b[2:])  # s2 ^= s0, s3 ^= s1
        np.bitwise_xor(a[1::-1], b[2:], out=b[1::-1])  # s1 ^= s2, s0 ^= s3
        np.left_shift(a[1], 17, out=t)
        np.bitwise_xor(b[2], t, out=b[2])
        np.left_shift(b[3], 45, out=t)  # s3 = rotl(s3, 45)
        np.right_shift(b[3], 19, out=b[3])
        np.bitwise_or(b[3], t, out=b[3])


def _table() -> np.ndarray:
    """``(256, 4, LANES)``: entry ``[i, :, j]`` is unit state i advanced ``j * STRIDE`` steps.

    Unit state i has bit ``i % 64`` of word ``i // 64`` set.
    """
    global _jump_table
    if _jump_table is None:
        bit = np.arange(256)
        lanes = np.zeros((STRIDE + 1, 4, 256), dtype=np.uint64)
        lanes[0, bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
        table = np.empty((256, 4, LANES), dtype=np.uint64)
        t = np.empty(256, dtype=np.uint64)
        table[:, :, 0] = lanes[0].T
        for j in range(1, LANES):
            _advance(lanes, t)
            lanes[0] = lanes[STRIDE]
            table[:, :, j] = lanes[0].T
        _jump_table = table
    return _jump_table


def _bits(states: np.ndarray) -> np.ndarray:
    """``(R, 256)`` bools: the bits of R ``(4,)`` uint64 states, word 0's lowest first."""
    return np.unpackbits(states.astype("<u8", copy=False).view(np.uint8), axis=1,
                         bitorder="little").view(bool)


def raw_outputs(rngs: Sequence["Rng"], n: int) -> np.ndarray:
    """``(R, n)`` raw 64-bit outputs; row r is what ``rngs[r]`` alone gives.

    Each generator advances exactly n steps, as n scalar draws would.
    """
    count = len(rngs)
    if count * n < CROSSOVER:
        return np.array([r._loop(n) for r in rngs], dtype=np.uint64).reshape(count, n)
    table = _table()
    per_pass = max(1, _PASS_LANES // (count * LANES)) * LANES * STRIDE
    states = np.array([r._s for r in rngs], dtype=np.uint64)
    out = np.empty((count, n), dtype=np.uint64)
    for start in range(0, n, per_pass):
        m = min(n - start, per_pass)
        lanes = -(-m // STRIDE)
        buf = np.empty((STRIDE + 1, 4, count, lanes), dtype=np.uint64)
        first = states  # each stream's state at the start of the block
        for lane0 in range(0, lanes, LANES):
            width = min(LANES, lanes - lane0)
            bits = _bits(first)
            for r in range(count):
                np.bitwise_xor.reduce(table[bits[r], :, :width], axis=0,
                                      out=buf[0, :, r, lane0 : lane0 + width])
            if lane0 + LANES < lanes:
                # the next block starts STRIDE steps past this block's last lane
                bits = _bits(np.ascontiguousarray(buf[0, :, :, lane0 + LANES - 1].T))
                first = np.array([np.bitwise_xor.reduce(table[b, :, 1], axis=0) for b in bits])
        _advance(buf.reshape(STRIDE + 1, 4, count * lanes), np.empty(count * lanes, np.uint64))
        s0 = buf[:STRIDE, 0]
        block = s0 + buf[:STRIDE, 3]  # rotl(s0 + s3, 23) + s0
        t = block >> np.uint64(41)
        block <<= np.uint64(23)
        block |= t
        block += s0
        out[:, start : start + m] = block.transpose(1, 2, 0).reshape(count, lanes * STRIDE)[:, :m]
        # the state after m steps: lane ``last`` after ``m - last * STRIDE`` of its steps
        last = (m - 1) // STRIDE
        states = np.ascontiguousarray(buf[m - last * STRIDE, :, :, last].T)
    for r, s in zip(rngs, states.tolist()):
        r._s = s
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
    """xoshiro256++ stream with the distribution helpers the lab needs.

    State is four 64-bit words initialized from four successive
    splitmix64 outputs of the seed.
    """

    __slots__ = ("seed", "_s")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        sm = self.seed
        s = []
        for _ in range(4):
            sm, out = _splitmix64(sm)
            s.append(out)
        self._s = s

    def split(self, *key: SeedPart) -> "Rng":
        """Independent substream keyed by value; position-independent."""
        return Rng(derive_seed(self.seed, *key))

    def next_u64(self) -> int:
        return self._loop(1)[0]

    def _loop(self, n: int) -> list[int]:
        """n raw 64-bit outputs from the scalar loop; state hoisted into locals."""
        s0, s1, s2, s3 = self._s
        out = []
        append = out.append
        for _ in range(n):
            tmp = (s0 + s3) & _MASK64
            append((((tmp << 23) | (tmp >> 41)) + s0) & _MASK64)
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s = [s0, s1, s2, s3]
        return out

    def _raw(self, n: int) -> np.ndarray:
        """n raw 64-bit outputs as a uint64 array."""
        return raw_outputs([self], n)[0]

    # -- distributions -------------------------------------------------

    def uniform(self) -> float:
        """One double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * _INV53

    def uniforms(self, n: int) -> np.ndarray:
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

    def normal(self) -> float:
        """``normals(1)[0]`` from two scalar draws.

        numpy's scalar ufuncs run the same loops as its array ones; the
        ``math`` functions round differently.
        """
        u = np.float64((self.next_u64() >> 11) * _INV53)
        ang = np.float64((2.0 * math.pi) * ((self.next_u64() >> 11) * _INV53))
        return float(np.sqrt(-2.0 * np.log1p(-u)) * np.cos(ang))

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via bitmask rejection."""
        if bound <= 0:
            raise ParameterError("bound must be positive")
        mask = (1 << int(bound).bit_length()) - 1
        while True:
            r = self.next_u64() & mask
            if r < bound:
                return r

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

    def gamma(self, alpha: float) -> float:
        """Gamma(alpha, 1) via the Marsaglia-Tsang squeeze method."""
        if alpha <= 0:
            raise ParameterError("gamma requires alpha > 0")
        if alpha < 1.0:
            u = 1.0 - self.uniform()
            return self.gamma(alpha + 1.0) * u ** (1.0 / alpha)
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            v = (1.0 + c * x) ** 3
            if v <= 0.0:
                continue
            u = 1.0 - self.uniform()
            if u < 1.0 - 0.0331 * x**4:
                return d * v
            if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                return d * v

    def beta(self, alpha: float) -> float:
        """One draw from the symmetric Beta(alpha, alpha) in [0, 1]."""
        if alpha <= 0:
            raise ParameterError("beta requires alpha > 0")
        x = self.gamma(alpha)
        y = self.gamma(alpha)
        if x == 0.0 and y == 0.0:
            return 0.5
        return x / (x + y)


class BlockStream:
    """One generator's outputs, drawn ahead in blocks and handed out one at a time.

    ``next_u64`` and ``normal`` return what the same calls on the generator
    return, in the same order.  ``uniform``, ``integer``, ``gamma`` and
    ``beta`` are ``Rng``'s own functions, so they apply the same bitmask
    rejection and Marsaglia-Tsang rules to the same outputs.  Each block
    comes from :func:`raw_outputs`; the Box-Muller normal at every offset
    of a block (from that output and the next) is computed with array
    ufuncs on first use.  Blocks hold at most ``WALK_BLOCK`` outputs,
    sized by ``expect``, the caller's estimate of the outputs it will use.

    The generator ends up to a block past the outputs handed out, so walk
    only a generator that is discarded afterwards.
    """

    __slots__ = ("_rng", "_left", "_block", "_raw", "_z", "_i")

    def __init__(self, rng: Rng, expect: int):
        self._rng = rng
        self._left = expect
        self._block = np.empty(0, dtype=np.uint64)
        self._raw: list[int] = []
        self._z: list[float] | None = None
        self._i = 0

    def _refill(self) -> None:
        """Draw a block after the one output, if any, not yet handed out."""
        size = min(WALK_BLOCK, max(self._left, 2 * STRIDE))
        self._left -= size
        self._block = np.concatenate([self._block[self._i :], raw_outputs([self._rng], size)[0]])
        self._raw = self._block.tolist()
        self._z = None
        self._i = 0

    def next_u64(self) -> int:
        i = self._i
        if i >= len(self._raw):
            self._refill()
            i = 0
        self._i = i + 1
        return self._raw[i]

    def normal(self) -> float:
        i = self._i
        if i + 1 >= len(self._raw):
            self._refill()
            i = 0
        if self._z is None:
            u = (self._block >> np.uint64(11)) * _INV53
            self._z = (np.sqrt(-2.0 * np.log1p(-u[:-1])) * np.cos((2.0 * math.pi) * u[1:])).tolist()
        self._i = i + 2
        return self._z[i]

    uniform = Rng.uniform
    integer = Rng.integer
    gamma = Rng.gamma
    beta = Rng.beta
