"""Deterministic 64-bit seed derivation.

Each scan point's generator, and the scan-voltage jitter's, is seeded with a
child seed derived from the scan seed and an integer lane index via the
splitmix64 finalizer.  The derivation is pure integer arithmetic, so scan
points can be simulated in any order, on any number of workers, and still
reproduce bit-identical streams.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One round of the splitmix64 output function (Steele/Lea/Flood mixer)."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_seed(seed: int, *lanes: int) -> int:
    """Derive a child seed from ``seed`` and one or more lane indices.

    Each lane advances the state by a multiple of the 64-bit golden ratio and
    remixes, so (seed, i) and (seed, j) collide only if splitmix64 does.
    """
    state = seed & _MASK
    for lane in lanes:
        state = splitmix64((state + (lane + 1) * _GOLDEN) & _MASK)
    return state
