"""Deterministic random number generation.

Every stochastic choice in this package flows through :class:`Rng`, a
xoshiro256++ generator seeded from splitmix64.  The algorithm is fixed:
given the same seed, the output stream is bit-identical across runs and
platforms, which is what makes replicate checksums and byte-identical
sweep outputs possible.  Substreams are derived from the *seed* (not the
current position), so ``rng.split("probes", 3)`` is reproducible no
matter how much the parent has already generated.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_INV53 = 2.0 ** -53

SeedPart = int | float | str | bool


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
    h = hashlib.blake2b(digest_size=8)
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


class Rng:
    """xoshiro256++ stream with the distribution helpers the lab needs.

    State is four 64-bit words initialized from four successive
    splitmix64 outputs of the seed.
    """

    ALGORITHM = "xoshiro256++"

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
        s0, s1, s2, s3 = self._s
        tmp = (s0 + s3) & _MASK64
        result = (((tmp << 23) | (tmp >> 41)) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s = [s0, s1, s2, s3]
        return result

    def _raw(self, n: int) -> list[int]:
        """n raw 64-bit outputs; hot path, state hoisted into locals."""
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

    # -- distributions -------------------------------------------------

    def uniform(self) -> float:
        """One double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * _INV53

    def uniforms(self, n: int) -> np.ndarray:
        return (np.array(self._raw(n), dtype=np.uint64) >> np.uint64(11)) * _INV53

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
        return float(self.normals(1)[0])

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
        signs = np.array(self._raw(n), dtype=np.uint64) >> np.uint64(63)
        return 2.0 * signs - 1.0

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n) by sorting random keys."""
        return np.argsort(self.uniforms(n), kind="stable")

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
