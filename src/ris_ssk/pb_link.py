"""Space-shift-keying transceiver over the beamformed reflected link.

The source conveys bits purely through the index of its single active
antenna; the destination runs scalar maximum-likelihood detection against
the cascaded gains.  A direct-link variant (no reflecting surface) serves
as the classic baseline.  Antenna indices are 0-based, and an index's bit
label is its natural binary value.
"""

from __future__ import annotations

import numpy as np

from .channel import (
    ChannelRealization,
    NoiseModel,
    all_effective_gains,
    effective_gain,
    sample_awgn,
)


def label_bit_errors(sent, detected) -> int:
    """Total Hamming distance between the natural binary labels of 0-based
    indices (scalars or equal-shape integer arrays): one popcount of their
    XOR."""
    diff = np.ascontiguousarray(np.bitwise_xor(sent, detected), dtype=np.uint64)
    return int(np.unpackbits(diff.view(np.uint8)).sum())


def transmit_pb(
    ch: ChannelRealization,
    phi,
    l: int,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> complex:
    """Received sample when antenna ``l`` is active: cascaded gain plus AWGN."""
    return effective_gain(ch, phi, l) + sample_awgn(noise, rng)


def detect_pb_ml(y: complex, ch: ChannelRealization, phi) -> int:
    """ML antenna decision: the index whose cascaded gain is closest to y.

    Ties resolve to the lowest index.
    """
    gains = all_effective_gains(ch, phi)
    return int((np.abs(y - gains) ** 2).argmin())


def transmit_detect_traditional_ssk(
    ch: ChannelRealization,
    l: int,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> int:
    """One shot of direct-link SSK: y = d_l + w, then scalar ML detection."""
    if ch.d is None:
        raise ValueError("channel realization carries no direct links")
    if not 0 <= l < len(ch.d):
        raise IndexError(f"antenna index {l} out of range 0..{len(ch.d) - 1}")
    y = ch.d[l] + sample_awgn(noise, rng)
    return int(np.argmin(np.abs(y - ch.d) ** 2))
