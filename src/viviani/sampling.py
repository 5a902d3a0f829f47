"""Seeded sampling with an explicitly specified generator.

The point streams produced here are part of the CLI's reproducibility
contract, so the generator is pinned down exactly rather than delegated to
a library whose stream may change:

* 64-bit linear congruential generator,
  ``state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64``
  (Knuth's MMIX constants), seeded with the user's seed taken mod 2^64;
* each draw advances the state once and yields the top 53 bits as a float,
  ``u = (state >> 11) / 2^53`` in [0, 1);
* a point stream of dimension n emits coordinates point-major:
  point 0's n coordinates, then point 1's, and so on, each mapped to
  ``lo + u * (hi - lo)``.

``Lcg64`` is the one-step definition.  ``sample_points`` generates a whole
stream in bulk by jump-ahead and returns exactly the numbers the one-step
recurrence gives: the map of ``2^j`` steps is again affine,
``state <- a_j * state + c_j (mod 2^64)`` with ``a_{j+1} = a_j^2`` and
``c_{j+1} = a_j c_j + c_j``, so applying it to the first ``2^j`` states
yields the next ``2^j``.  The states are a ``uint64`` array whose multiply
and add wrap mod 2^64, and ``(state >> 11)`` converts to a float exactly.
This is F. B. Brown's jump-ahead ("Random Number Generation with Arbitrary
Strides", Trans. Am. Nucl. Soc. 71, 1994) used as a doubling fill.
"""

from __future__ import annotations

import numpy as np

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1
_INV53 = 1.0 / (1 << 53)


class Lcg64:
    """Minimal deterministic uniform generator (see module docstring)."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK

    def next_float(self) -> float:
        """Next uniform draw in [0, 1)."""
        self.state = (_MULT * self.state + _INC) & _MASK
        return (self.state >> 11) * _INV53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + self.next_float() * (hi - lo)


def sample_points(dimension: int, count: int, seed: int,
                  lo: float, hi: float) -> np.ndarray:
    """(count, dimension) array of LCG-uniform points in [lo, hi]^dimension.

    Bit for bit the stream of ``Lcg64(seed).uniform(lo, hi)``, point-major,
    filled by doubling in log2(count * dimension) array operations.
    """
    if count < 0 or dimension < 0:
        raise ValueError("count and dimension must be non-negative")
    m = count * dimension
    states = np.empty(m, dtype=np.uint64)
    if m:
        states[0] = (_MULT * (int(seed) & _MASK) + _INC) & _MASK
        a, c = _MULT, _INC  # the map of `filled` steps
        filled = 1
        while filled < m:
            take = min(filled, m - filled)
            states[filled:filled + take] = (states[:take] * np.uint64(a)
                                            + np.uint64(c))
            a, c = (a * a) & _MASK, (a * c + c) & _MASK
            filled += take
    u = (states >> np.uint64(11)).astype(np.float64) * _INV53
    return (lo + u * (hi - lo)).reshape(count, dimension)
