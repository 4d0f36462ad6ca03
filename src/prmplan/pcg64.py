"""numpy's `default_rng` streams, computed in Python bit for bit.

`seed_words(entropy, n)` is `numpy.random.SeedSequence(entropy)
.generate_state(n)` (numpy's `bit_generator.pyx`), and `Pcg64(seed).random()`
is `numpy.random.default_rng(seed).random()`: PCG64 (O'Neill, *PCG*, 2014)
seeded as numpy's `_pcg64.pyx` seeds it, with its XSL-RR output and 53-bit
doubles. The trials draw from them so that a run without risk walks never
imports `numpy.random`. Tests compare both with numpy's.
"""

from __future__ import annotations

from collections.abc import Sequence

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy: int | Sequence[int]) -> list[int]:
    """The little-endian uint32 words of an int (0 is one word), or of each
    item of a sequence in turn."""
    if not isinstance(entropy, int):
        return [w for item in entropy for w in _words(item)]
    if entropy < 0:
        raise ValueError("entropy must be non-negative")
    return [entropy >> k & M32 for k in range(0, max(entropy.bit_length(), 1), 32)]


def seed_words(entropy: int | Sequence[int], n: int) -> list[int]:
    """SeedSequence(entropy).generate_state(n): n uint32 words."""
    words = _words(entropy)
    hash_const = 0x43B0D7E5

    def hashmix(value: int, mult: int = 0x931E8875) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & M32
        value = value * hash_const & M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & M32
        return r ^ r >> 16

    # A pool of 4 words; entropy words past the fourth mix in afterwards.
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for w in words[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(w))
    hash_const = 0x8B51F9DD
    return [hashmix(pool[i % 4], 0x58F38DED) for i in range(n)]


class Pcg64:
    """numpy.random.default_rng(seed) for an int seed, reduced to random()."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        # generate_state(4, uint64) pairs the words low word first.
        w = seed_words(seed, 8)
        s = [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]
        self.inc = (s[2] << 64 | s[3]) << 1 & M128 | 1
        # From state 0: step, add the initial state, step.
        self.state = ((self.inc + (s[0] << 64 | s[1])) * PCG_MULT + self.inc) & M128

    def random(self) -> float:
        """The next double in [0, 1): the top 53 bits of the next output."""
        self.state = state = (self.state * PCG_MULT + self.inc) & M128
        x = (state >> 64 ^ state) & M64
        rot = state >> 122
        return (((x >> rot | x << (64 - rot)) & M64) >> 11) * 2**-53
