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

from .channel import NoiseModel, sample_awgn


def label_bit_errors(sent, detected) -> int:
    """Total Hamming distance between the natural binary labels of 0-based
    indices (scalars or equal-shape integer arrays): one popcount of their
    XOR.  Raises ValueError for unequal shapes, which would broadcast, and
    for a negative index, which has no label."""
    if np.shape(sent) != np.shape(detected):
        raise ValueError(f"sent and detected shapes differ: {np.shape(sent)} vs {np.shape(detected)}")
    if np.any(np.minimum(sent, detected) < 0):
        raise ValueError("antenna and phase indices must be nonnegative")
    diff = np.ascontiguousarray(np.bitwise_xor(sent, detected), dtype=np.uint64)
    return int(np.unpackbits(diff.view(np.uint8)).sum())


def transmit_pb(gains: np.ndarray, l: int, noise: NoiseModel, rng: np.random.Generator) -> complex:
    """Received sample y = gains[l] + w when antenna ``l`` of one trial's
    gain vector (length Nt) is active; w is drawn from ``rng``."""
    if isinstance(l, (bool, np.bool_)):
        raise TypeError(f"an antenna index is an integer, not a bool: {l!r}")
    if not 0 <= l < len(gains):
        raise IndexError(f"antenna index {l} out of range 0..{len(gains) - 1}")
    return gains[l] + sample_awgn(noise, rng)


def detect_pb_ml(y, gains: np.ndarray) -> np.ndarray:
    """ML antenna decisions: per trial, the index of the gain nearest to y.

    ``y`` is (...) and ``gains`` (..., Nt); ties resolve to the lowest index.
    """
    return (np.abs(np.asarray(y)[..., None] - gains) ** 2).argmin(axis=-1)
