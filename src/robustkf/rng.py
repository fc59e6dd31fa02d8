"""Deterministic random streams for reproducible experiments.

The generator is SplitMix64, a 64-bit counter generator: the k-th raw output
of a stream with seed ``s`` is ``mix64(s + (k + 1) * GAMMA)`` where ``mix64``
is the standard SplitMix64 finalizer and ``GAMMA = 0x9E3779B97F4A7C15``.
Because every draw is a pure function of ``(seed, k)``, blocks of any size
can be generated in one vectorized call, substreams are cheap to derive, and
the exact sequence can be replayed in any language from this description.

The same holds across streams: `substream_seed` and `RandomStream` also take
a uint64 array of seeds, and a stream over ``runs`` seeds then draws a block
of shape ``(runs, count)`` whose row ``i`` is exactly the block the stream
of seed ``i`` alone would draw.  A single seed is the one-stream case of the
same code.

Gaussian variates use the trigonometric Box-Muller transform and spend
exactly two uniforms per normal (the sine branch is discarded), so the raw
draw count consumed by any sampling routine is a fixed function of its
output size.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

#: SplitMix64 increment (the 64-bit golden ratio).
GAMMA = 0x9E3779B97F4A7C15

_U = np.uint64


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output finalizer, vectorized over uint64 arrays."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U(30))) * _U(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U(27))) * _U(0x94D049BB133111EB)
        return z ^ (z >> _U(31))


def _seeds(seed) -> np.ndarray:
    """A seed as uint64: an int is taken modulo 2**64, an array is cast."""
    if isinstance(seed, np.ndarray):
        return seed.astype(np.uint64, copy=False)
    return np.asarray(int(seed) & _MASK64, dtype=np.uint64)


def substream_seed(seed, index):
    """Derive the seed of substream ``index`` of a parent stream.

    Defined as ``mix64(parent_seed + (index + 1) * GAMMA)`` modulo 2**64;
    distinct indices give well-separated streams because the finalizer is a
    bijection.  ``seed`` (an int, or a uint64 array) and ``index`` (an int
    or an integer array) broadcast against each other; two scalars give an
    int, anything else a uint64 array.
    """
    index = np.asarray(index)
    if np.any(index < 0):
        raise ValueError("substream index must be >= 0")
    with np.errstate(over="ignore"):
        raw = _seeds(seed) + (index.astype(np.uint64) + _U(1)) * _U(GAMMA)
    out = _mix64(raw)
    return int(out) if out.ndim == 0 else out


class RandomStream:
    """SplitMix64 stream with a draw counter.

    Parameters
    ----------
    seed : int or ndarray of uint64
        Stream seed, taken modulo 2**64; or one seed per stream of a batch
        of streams that advance together.  Draws then gain the seeds' shape
        as leading axes: a stream over ``runs`` seeds returns ``(runs,
        count)`` blocks.
    """

    def __init__(self, seed):
        self.seed = seed.astype(np.uint64) if isinstance(seed, np.ndarray) else int(seed) & _MASK64
        self._count = 0

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, drawn={self._count})"

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit outputs of every stream."""
        if count < 0:
            raise ValueError("count must be >= 0")
        ks = np.arange(self._count + 1, self._count + count + 1, dtype=np.uint64)
        self._count += count
        with np.errstate(over="ignore"):
            states = _seeds(self.seed)[..., None] + ks * _U(GAMMA)
        return _mix64(states)

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` uniforms of every stream, strictly inside (0, 1).

        Uses the top 53 bits of each raw output, offset by half an ulp so
        the endpoints are never produced: ``((raw >> 11) + 0.5) * 2**-53``.
        """
        return ((self.raw(count) >> _U(11)).astype(float) + 0.5) * 2.0**-53

    def normals(self, count: int) -> np.ndarray:
        """Next ``count`` standard normal draws of every stream.

        Box-Muller, cosine branch only: each normal consumes two uniforms
        ``(u1, u2)`` and equals ``sqrt(-2 ln u1) * cos(2 pi u2)``.
        """
        u = self.uniforms(2 * count)
        return np.sqrt(-2.0 * np.log(u[..., 0::2])) * np.cos(2.0 * np.pi * u[..., 1::2])

    def substream(self, index: int) -> "RandomStream":
        """Independent stream derived from this stream's seed and ``index``."""
        return RandomStream(substream_seed(self.seed, index))
