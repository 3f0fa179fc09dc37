"""Fading channel and receiver-noise sampling with reproducible substreams.

All randomness in the simulator flows through counter-based Philox streams
keyed by (seed, trial index, purpose), so a given trial produces identical
draws no matter how many trials run around it or how work is split across
processes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# The key's 16-bit purpose field: one fixed code for each stream the
# simulator draws from.
_PURPOSE_CODES = {
    "channel": 0,
    "data": 1,
    "sdr": 2,
    "oracle": 3,
}

TRIAL_LIMIT = 1 << 48
SEED_LIMIT = 1 << 64


def _purpose_code(purpose: str) -> int:
    code = _PURPOSE_CODES.get(purpose)
    if code is None:
        raise ValueError(f"unknown stream purpose {purpose!r}; choose from {tuple(_PURPOSE_CODES)}")
    return code


def _philox_key(seed: int, trial: int, purpose: str) -> np.ndarray:
    if isinstance(seed, bool) or isinstance(trial, bool):
        raise TypeError(f"seeds and trial indices are integers, not bools: {seed!r}, {trial!r}")
    seed, trial = operator.index(seed), operator.index(trial)
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    if not 0 <= trial < TRIAL_LIMIT:
        raise ValueError(f"trial index must be in [0, 2^48), got {trial}")
    key = np.empty(2, dtype=np.uint64)
    key[0] = np.uint64(seed)
    key[1] = (np.uint64(trial) << np.uint64(16)) | np.uint64(_purpose_code(purpose))
    return key


def substream(seed: int, trial: int, purpose: str = "channel") -> np.random.Generator:
    """Independent random stream for one (seed, trial, purpose) triple.

    The same triple always yields a bit-identical stream, which makes every
    Monte Carlo trial reproducible in isolation and under any parallel
    execution order.
    """
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, trial, purpose)))


class StreamBank:
    """Reusable generator that re-keys itself per trial.

    Produces streams bit-identical to :func:`substream` while skipping the
    per-trial generator construction cost.  Not safe to share across
    threads or processes; create one per worker and purpose.
    """

    def __init__(self, seed: int, purpose: str):
        key = _philox_key(seed, 0, purpose)
        self._bg = np.random.Philox(key=key)
        self._gen = np.random.Generator(self._bg)
        # A fresh-stream state held as plain ints: the state setter converts
        # them several times faster than numpy scalars.  Only key[1] changes
        # per trial; counter, buffer position and the uint32 cache always
        # restart, exactly as in a newly constructed generator.
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [int(key[0]), int(key[1])]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._key = self._state["state"]["key"]
        self._purpose = _purpose_code(purpose)

    def trial(self, trial: int) -> np.random.Generator:
        """Return the shared generator re-keyed to the given trial index."""
        if isinstance(trial, bool):
            raise TypeError(f"trial indices are integers, not bools: {trial!r}")
        trial = operator.index(trial)
        if not 0 <= trial < TRIAL_LIMIT:
            raise ValueError(f"trial index must be in [0, 2^48), got {trial}")
        self._key[1] = (trial << 16) | self._purpose
        self._bg.state = self._state
        return self._gen


def _index_shift(bound) -> int:
    bound = operator.index(bound)
    if not 2 <= bound <= 1 << 32 or bound & (bound - 1):
        raise ValueError(f"index bounds must be powers of two in [2, 2^32], got {bound}")
    return 33 - bound.bit_length()


def raw_indices(words, bounds):
    """The 0-based indices ``Generator.integers(0, bounds)`` returns, read
    from the raw 64-bit words (``bit_generator.random_raw``) of the same
    stream.

    For a power-of-two bound 2^b, numpy's bounded-integer method (Lemire's
    multiply-shift) never rejects a draw, so each index is the top b bits of
    the stream's next 32-bit half, halves taken low half first.

    A scalar bound takes one word, the int ``random_raw()`` returns, and
    gives an int index from its low half.  A sequence of K bounds reads
    halves 0..K-1 of the last axis of ``words``, a uint64 array
    (..., ceil(K/2)), and returns int64 (..., K).  Either way the words
    advance the stream exactly as far as ``integers`` would; the unused
    high half that numpy would cache is read by no double or normal draw.
    Raises ValueError for a bound that is not a power of two in [2, 2^32]
    (a bound of 1 draws nothing in numpy).
    """
    if isinstance(bounds, (int, np.integer)):
        return (words & 0xFFFFFFFF) >> _index_shift(bounds)
    shifts = np.array([_index_shift(b) for b in bounds], dtype=np.uint64)
    k = len(shifts)
    words = np.asarray(words, dtype=np.uint64)
    if words.shape[-1:] != ((k + 1) // 2,):
        raise ValueError(f"{k} indices take {(k + 1) // 2} words, got shape {words.shape}")
    halves = np.stack((words & 0xFFFFFFFF, words >> 32), axis=-1)
    halves = halves.reshape(*words.shape[:-1], -1)[..., :k]
    return (halves >> shifts).astype(np.int64)


@dataclass(frozen=True)
class NoiseModel:
    """Complex AWGN at the destination with variance ``n0`` per sample.

    ``n0 = 0`` is the degenerate noiseless mode.  The transmit SNR is the
    reciprocal of the noise variance.
    """

    n0: float

    def __post_init__(self):
        if not 0 <= self.n0 < math.inf:  # also rejects NaN
            raise ValueError(f"noise variance must be finite and nonnegative, got {self.n0}")

    @property
    def rho(self) -> float:
        """Linear transmit SNR (inf in noiseless mode)."""
        return np.inf if self.n0 == 0 else 1.0 / self.n0

    @classmethod
    def from_snr_db(cls, snr_db: float) -> "NoiseModel":
        try:
            return cls(n0=10.0 ** (-snr_db / 10.0))
        except OverflowError:
            raise ValueError(f"an SNR of {snr_db} dB puts the noise variance beyond float range") from None

    @classmethod
    def from_rho(cls, rho: float) -> "NoiseModel":
        if rho <= 0:
            raise ValueError("linear SNR must be positive")
        return cls(n0=1.0 / rho)


@dataclass(frozen=True)
class ChannelRealization:
    """Draws of the reflected link: G is source-to-surface (..., N, Nt), f is
    surface-to-destination (..., N).  Leading axes index trials.  The direct
    link d (..., Nt) is optional and no sampler produces it: the direct-link
    baseline draws its links as plain :func:`complex_normals`."""

    G: np.ndarray
    f: np.ndarray
    d: np.ndarray | None = None

    def __post_init__(self):
        if self.G.ndim < 2:
            raise ValueError("G must be a matrix per trial, shaped (..., N, Nt)")
        if self.f.shape != self.G.shape[:-1]:
            raise ValueError("f must have one entry per reflecting element")
        if self.d is not None and self.d.shape != self.G.shape[:-2] + self.G.shape[-1:]:
            raise ValueError("d must have one entry per transmit antenna")

    @property
    def n(self) -> int:
        return self.G.shape[-2]

    @property
    def nt(self) -> int:
        return self.G.shape[-1]


def channel_draw_size(n: int, nt: int) -> int:
    """Real standard normals one channel realization consumes."""
    return 2 * (n * nt + n)


def complex_normals(z: np.ndarray) -> np.ndarray:
    """Scale float64 standard normals (..., 2k) in place by 1/sqrt(2), as numpy
    divides a complex array by sqrt(2), and return them as k unit-variance
    complex normals: the complex view (..., k) of (real, imaginary) pairs."""
    z *= _INV_SQRT2
    return z.view(np.complex128)


def channel_views(draws: np.ndarray, n: int, nt: int):
    """G (..., n, nt) and f (..., n) as complex views of float64 draws
    (..., channel_draw_size), whose pairs run G, then f."""
    if draws.dtype != np.float64 or draws.shape[-1:] != (channel_draw_size(n, nt),):
        raise ValueError(f"draws must be float64 rows of {channel_draw_size(n, nt)} elements")
    zc = draws.view(np.complex128)  # raises ValueError for a strided row
    k = n * nt
    # one trial's row, as sample_channel draws it, skips the shape arithmetic
    G = zc[:k].reshape(n, nt) if zc.ndim == 1 else zc[..., :k].reshape(zc.shape[:-1] + (n, nt))
    return G, zc[..., k:]


def sample_channel(n: int, nt: int, rng: np.random.Generator, out: np.ndarray | None = None) -> ChannelRealization:
    """Draw one channel realization: G and f hold i.i.d. complex normals of
    unit variance, split evenly between the real and imaginary parts.  Given
    ``out``, a float64 row of ``channel_draw_size`` elements, they are views
    of the draws in it."""
    if n < 1 or nt < 1:
        raise ValueError("channel dimensions must be at least 1")
    if out is None:
        out = np.empty(channel_draw_size(n, nt))
    elif out.ndim != 1:
        raise ValueError("out must be one row")
    G, f = channel_views(out, n, nt)  # checks the row before anything is drawn
    rng.standard_normal(out=out)
    complex_normals(out)
    return ChannelRealization(G, f)


def sample_awgn(noise: NoiseModel, rng: np.random.Generator) -> complex:
    """One zero-mean complex Gaussian noise sample with variance ``n0``."""
    if noise.n0 == 0:
        return 0j
    re, im = rng.standard_normal(2).tolist()
    scale = math.sqrt(noise.n0 / 2.0)
    return complex(re * scale, im * scale)


def cascaded_gains(G: np.ndarray, f: np.ndarray, coeffs) -> np.ndarray:
    """Cascaded gains sum_i f_i g_il c_ki of every antenna l under each of K
    coefficient rows c_k, shaped (..., K, Nt).

    G is (..., N, Nt), f is (..., N) and coeffs is (..., K, N); a single
    coefficient vector (N,) is the case K = 1.
    """
    return (coeffs * f[..., None, :]) @ G
