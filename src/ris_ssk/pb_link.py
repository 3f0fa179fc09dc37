"""Space-shift-keying transceiver over the beamformed reflected link.

The source conveys bits purely through the index of its single active
antenna; the destination runs scalar maximum-likelihood detection against
the gains of all antennas.  The gains are the cascaded gains of the
reflected link or, for the classic direct-link baseline, the direct links
themselves.  Antenna indices are 0-based, and an index's bit label is its
natural binary value.
"""

from __future__ import annotations

import numpy as np

from .channel import NoiseModel, _integer, sample_awgn


def label_bit_errors(sent, detected) -> int:
    """Total Hamming distance between the natural binary labels of 0-based
    indices (scalars or equal-shape integer arrays): one popcount of their
    XOR.  Raises TypeError for indices that are not integers (True would
    count as 1), and ValueError for unequal shapes, which would broadcast,
    and for a negative index, which has no label."""
    sent, detected = np.asarray(sent), np.asarray(detected)
    if sent.dtype.kind not in "iu" or detected.dtype.kind not in "iu":
        raise TypeError(f"antenna and phase indices must be integers, got {sent.dtype} and {detected.dtype}")
    if sent.shape != detected.shape:
        raise ValueError(f"sent and detected shapes differ: {sent.shape} vs {detected.shape}")
    if np.any(np.minimum(sent, detected) < 0):
        raise ValueError("antenna and phase indices must be nonnegative")
    diff = np.ascontiguousarray(np.bitwise_xor(sent, detected), dtype=np.uint64)
    return int(np.unpackbits(diff.view(np.uint8)).sum())


def transmit_pb(gains: np.ndarray, l: int, noise: NoiseModel, rng: np.random.Generator) -> complex:
    """One trial's received sample y = gains[l] + w, antenna ``l`` of its Nt
    gains active and w drawn from ``rng``: the one-trial API of pb sweeps and
    the tests (the other sweeps add a chunk's noise at once)."""
    l = _integer("an antenna index", l)
    if not 0 <= l < len(gains):
        raise IndexError(f"antenna index {l} out of range 0..{len(gains) - 1}")
    return gains[l] + sample_awgn(noise, rng)


def detect_pb_ml(y, gains: np.ndarray) -> np.ndarray:
    """ML antenna decisions: per trial, the index of the gain nearest to y.

    ``y`` is (...) and ``gains`` (..., Nt); ties resolve to the lowest index.
    """
    return (np.abs(np.asarray(y)[..., None] - gains) ** 2).argmin(axis=-1)
