"""Two-slot orthogonal phase coding across two halves of the surface.

The surface is split into two sub-surfaces of N/2 elements.  Their common
phase offsets over two time slots form an orthogonal 2x2 code carrying two
PSK symbols of surface-originated data, while the source keeps signalling
its antenna index.  Both the exhaustive joint ML detector and the
combining-based fast detector are provided; because the code is
orthogonal, the fast detector's per-antenna metric is the exact ML cost
(less a constant), found with 2M phase correlations instead of M^2
hypotheses.
"""

from __future__ import annotations

import numpy as np

# Unused here; perfbench's tracer is its only reader, wrapping it under this module.
from .channel import sample_awgn

_TWO_PI = 2.0 * np.pi


def psk_phases(m: int) -> np.ndarray:
    """The M-ary phase alphabet {0, 2pi/M, ..., 2pi(M-1)/M}."""
    if m < 2 or m & (m - 1):
        raise ValueError("PSK order must be a power of two >= 2")
    return _TWO_PI * np.arange(m) / m


def code_matrix(alpha1: float, alpha2: float) -> np.ndarray:
    """The 2x2 orthogonal code matrix; C^H C = 2 I for every phase pair."""
    return np.array(
        [
            [np.exp(1j * alpha1), np.exp(1j * alpha2)],
            [-np.exp(-1j * alpha2), np.exp(-1j * alpha1)],
        ]
    )


def psk_symbols(m: int) -> np.ndarray:
    """The phase factors e^{j alpha} of the M-ary alphabet, in index order."""
    return np.exp(1j * psk_phases(m))


# The broadcasting core.  Every function below works over any leading
# (trial) axes: h1 and h2 are (..., Nt), received slots and phase factors
# are (...).  A single trial is its no-leading-axes case, and the sweep
# harness calls it on whole chunks of trials.  Antenna and phase indices
# are 0-based throughout.


def sub_surface_sums(G: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sub-surface sums h1, h2 (..., Nt) from G (..., N, Nt) and f (..., N)."""
    n = f.shape[-1]
    if n % 2:
        raise ValueError("element count must be even for two sub-surfaces")
    half = n // 2
    h1 = (f[..., None, :half] @ G[..., :half, :])[..., 0, :]
    h2 = (f[..., None, half:] @ G[..., half:, :])[..., 0, :]
    return h1, h2


def coded_slots(h1, h2, a1, a2):
    """Noiseless received slots for phase factors a1 = e^{j alpha1}, a2.

    Slot 1 applies (alpha1, alpha2) to the sub-surfaces; slot 2 applies
    (pi - alpha2, -alpha1), which realizes the orthogonal code on the
    equivalent two-path channel.
    """
    return a1 * h1 + a2 * h2, -np.conj(a2) * h1 + np.conj(a1) * h2


def ml_costs(y1, y2, h1, h2, m: int) -> np.ndarray:
    """Residual ||y - C h_l||^2 for every (l, k1, k2), shaped (..., Nt, M, M)."""
    psk = psk_symbols(m)
    c1, c2 = coded_slots(h1[..., None, None], h2[..., None, None], psk[:, None], psk[None, :])
    s1 = np.asarray(y1)[..., None, None, None] - c1
    s2 = np.asarray(y2)[..., None, None, None] - c2
    return np.abs(s1) ** 2 + np.abs(s2) ** 2


def detect_ml(y1, y2, h1, h2, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0-based (l, k1, k2) minimizing the joint cost; ties go to the
    lexicographically smallest hypothesis."""
    cost = ml_costs(y1, y2, h1, h2, m)
    flat = cost.reshape(*cost.shape[:-3], -1).argmin(axis=-1)
    l0, k = np.divmod(flat, m * m)
    k1, k2 = np.divmod(k, m)
    return l0, k1, k2


def fast_metrics(y1, y2, h1, h2, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-antenna ML cost D less |y1|^2 + |y2|^2, and the inner phase
    decisions k1, k2 that attain it, each (..., Nt).

    Since C^H C = 2I, ||y - C h_l||^2 = |y1|^2 + |y2|^2 + 2 g_l
    - 2 Re(conj(a1) r1_l) - 2 Re(conj(a2) r2_l), with g_l = |h1_l|^2 + |h2_l|^2
    and r1, r2 from :func:`combine`; the two phase terms separate, so each
    PSK alphabet is searched on its own (2M correlations instead of M^2
    hypotheses).  A zero-gain antenna gets D = 0, its exact ML cost less
    the constant.
    """
    psk_conj = psk_symbols(m).conj()
    r1, r2 = combine(np.asarray(y1)[..., None], np.asarray(y2)[..., None], h1, h2)
    c1 = (r1[..., None] * psk_conj).real
    c2 = (r2[..., None] * psk_conj).real
    gain = np.abs(h1) ** 2 + np.abs(h2) ** 2
    D = 2.0 * (gain - c1.max(axis=-1) - c2.max(axis=-1))
    return D, c1.argmax(axis=-1), c2.argmax(axis=-1)


def detect_fast(y1, y2, h1, h2, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0-based (l, k1, k2): argmin of the per-antenna ML cost (lowest antenna
    on ties), then the two inner phase decisions at that antenna."""
    D, k1, k2 = fast_metrics(y1, y2, h1, h2, m)
    l0 = D.argmin(axis=-1)[..., None]
    return l0[..., 0], np.take_along_axis(k1, l0, -1)[..., 0], np.take_along_axis(k2, l0, -1)[..., 0]


def combine(y1, y2, h1, h2):
    """Orthogonal-code combining through sub-surface sums h1, h2 (elementwise
    over arrays); noiseless outputs are (|h1|^2 + |h2|^2) e^{j alpha}."""
    r1 = y1 * np.conj(h1) + np.conj(y2) * h2
    r2 = y1 * np.conj(h2) - np.conj(y2) * h1
    return r1, r2

