"""Counter-based deterministic randomness.

Every random decision in the harness is addressed as (stream key, draw index)
instead of consuming sequential generator state. The value at an address is a
pure function of the address, so operator output is independent of iteration
order, chunking, and worker count.

The key is a 64-bit hash of the canonical context tuple
(axis, dataset, op, severity_index, seed); the per-index generator is random
access into the splitmix64 sequence seeded at that key. Both the FNV-1a key
hash and the splitmix64 finalizer are fixed constants of the file format:
changing them invalidates every recorded provenance sidecar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x00000100000001B3

# splitmix64 constants (golden-ratio increment + finalizer multipliers)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U = np.uint64


@dataclass(frozen=True)
class StreamKey:
    """64-bit address of one deterministic random stream."""

    key: int

    def __post_init__(self):
        if not 0 <= self.key <= _MASK64:
            raise ValueError("stream key out of 64-bit range")


def _splitmix64(z: int) -> int:
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_key(axis: str, dataset: str, op: str, severity_index: int, seed: int) -> StreamKey:
    """Hash the canonical encoding of a context tuple into a StreamKey.

    Encoding: the five fields joined with 0x1F separators, UTF-8; hashed with
    64-bit FNV-1a and passed through the splitmix64 finalizer.
    """
    text = "\x1f".join([axis, dataset, op, str(int(severity_index)), str(int(seed))])
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return StreamKey(_splitmix64(h))


_BLOCK = 1 << 14  # draws computed at once, so the splitmix64 temporaries stay small


def uniform(key: StreamKey, index):
    """Uniform real in [0, 1) at (key, index): the top 53 bits of the
    splitmix64 output at position index+1 of the sequence seeded at key.

    Accepts a scalar index or an integer array; returns a float or a float64
    array of the same shape.
    """
    index = np.asarray(index)
    flat = index.reshape(-1)
    out = np.empty(len(flat), dtype=np.float64)
    with np.errstate(over="ignore"):  # mod-2**64 wraparound is the algorithm
        for lo in range(0, len(flat), _BLOCK):
            z = _U(key.key) + (flat[lo:lo + _BLOCK].astype(np.uint64) + _U(1)) * _U(_GAMMA)
            z = (z ^ (z >> _U(30))) * _U(_MIX1)
            z = (z ^ (z >> _U(27))) * _U(_MIX2)
            out[lo:lo + _BLOCK] = (z ^ (z >> _U(31))) >> _U(11)  # exact: below 2**53
    out *= 1.0 / (1 << 53)
    if index.ndim == 0:
        return float(out[0])
    return out.reshape(index.shape)


def gaussian(key: StreamKey, index):
    """Standard normal variate at (key, index) via trigonometric Box-Muller.

    Consumes the two uniforms at sub-indices (2*index, 2*index + 1), so
    distinct indices never share raw draws. Computed one block of indices at
    a time into the float64 result.
    """
    index = np.asarray(index)
    flat = index.reshape(-1)
    out = np.empty(len(flat), dtype=np.float64)
    for lo in range(0, len(flat), _BLOCK):
        with np.errstate(over="ignore"):
            sub = flat[lo:lo + _BLOCK].astype(np.uint64) * _U(2)
        radius = uniform(key, sub)
        sub += _U(1)
        angle = uniform(key, sub)
        np.negative(radius, out=radius)
        np.log1p(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle *= 2.0 * np.pi
        np.cos(angle, out=angle)
        np.multiply(radius, angle, out=out[lo:lo + _BLOCK])
    if index.ndim == 0:
        return float(out[0])
    return out.reshape(index.shape)


def permutation(key: StreamKey, n: int) -> np.ndarray:
    """Deterministic permutation of range(n): argsort of the first n uniforms.

    Ties between 53-bit uniforms are broken by position, which keeps the
    result a pure function of (key, n).
    """
    u = uniform(key, np.arange(n, dtype=np.uint64))
    return np.argsort(u, kind="stable").astype(np.int64)
