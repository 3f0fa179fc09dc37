"""Closed-form error-probability engine.

Gaussian tail helpers, the large-surface Gaussian approximation of the
beamformed two-antenna scheme, and the pairwise/union-bound machinery for
the two-slot coded scheme, including high-SNR asymptotes.  Union-bound
based averages are held to [0, 1/2] for reporting; the raw bound is
:func:`union_bound_antenna`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channel import _integer, _real


@dataclass(frozen=True)
class AbepQuery:
    """Operating point for the closed forms: finite positive linear SNR, and
    the integer element count, then the antenna count and PSK order, each a
    power of two from two up (M is ignored by the beamformed scheme)."""

    rho: float
    n: int
    nt: int = 2
    m: int = 2

    def __post_init__(self):
        object.__setattr__(self, "rho", _real("rho", self.rho))
        if not 0 < self.rho < np.inf:  # also rejects NaN
            raise ValueError(f"linear SNR must be a finite positive number, got {self.rho!r}")
        for name, least, power_of_two in (("n", 1, False), ("nt", 2, True), ("m", 2, True)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least, power_of_two=power_of_two))


@dataclass(frozen=True)
class GaussianApproxParams:
    """Moments of the aligned two-antenna cascade v = sum |f_i||g_i1 - g_i2|
    under the large-N Gaussian approximation, plus the noncentrality a^2."""

    mu_v: float
    sigma_v2: float
    a2: float

    @classmethod
    def from_elements(cls, n: int) -> "GaussianApproxParams":
        n = _integer("n", n, 1)
        mu = np.sqrt(2.0) / 4.0 * np.pi * n
        return cls(mu_v=mu, sigma_v2=(2.0 - np.pi**2 / 8.0) * n, a2=mu * mu)


@dataclass(frozen=True)
class ChiSquarePdfParams:
    """Four-degree chi-square density f(x) = x/(A N^2) exp(-x/(B N)).

    (A, B) = (4, 2) models the pairwise code-distance; (1/4, 1/2) models
    the per-antenna combined gain.
    """

    a: float
    b: float

    def pdf(self, x, n: int):
        n = _integer("n", n, 1)
        x = np.asarray(x, dtype=float)
        return x / (self.a * n**2) * np.exp(-x / (self.b * n))


PAIR_DISTANCE_PDF = ChiSquarePdfParams(a=4.0, b=2.0)
COMBINED_GAIN_PDF = ChiSquarePdfParams(a=0.25, b=0.5)


def q_exact(x):
    """Gaussian tail probability via the complementary error function.

    scipy is imported here, not at module level, so that sweeps and the
    closed forms they call never load it.
    """
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def q_chiani(x):
    """Two-exponential approximation of the Gaussian tail (x >= 0)."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x / 2.0) / 12.0 + np.exp(-2.0 * x * x / 3.0) / 4.0


def mgf_noncentral_chisq(s: float, params: GaussianApproxParams) -> float:
    """MGF of v^2 for Gaussian v: one noncentral chi-square degree of freedom."""
    with np.errstate(over="ignore"):
        denom = 1.0 - 2.0 * params.sigma_v2 * s
        exponent = params.a2 * s
    if denom <= 0:
        raise ValueError("MGF argument beyond the pole: need 1 - 2 sigma_v^2 s > 0")
    if denom == np.inf or exponent == -np.inf:
        return 0.0  # the limit as s -> -inf, reached once a term overflows
    return float(denom**-0.5 * np.exp(exponent / denom))


def abep_pb_two_tx(q: AbepQuery) -> float:
    """Average bit error probability of the beamformed scheme, two antennas.

    Averages the two-exponential tail approximation over the squared
    Gaussian-approximated cascade, giving a weighted pair of MGF values.
    The result lies in (0, 1/3].
    """
    if q.nt != 2:
        raise ValueError("closed form holds for exactly two transmit antennas")
    params = GaussianApproxParams.from_elements(q.n)
    return (
        mgf_noncentral_chisq(-q.rho / 4.0, params) / 12.0
        + mgf_noncentral_chisq(-q.rho / 3.0, params) / 4.0
    )


def psk_g(i: int, m: int) -> float:
    """PSK pairwise coefficient sin^2((2i - 1) pi / M) for 1 <= i <= max(M/4, 1)."""
    i, m = _integer("a PSK index", i), _integer("m", m, 1)
    if not 1 <= i <= max(m // 4, 1):
        raise IndexError(f"index {i} out of range 1..{max(m // 4, 1)}")
    return float(np.sin((2 * i - 1) * np.pi / m) ** 2)


def _diversity_kernel(gamma: float) -> float:
    # E{Q(sqrt(rho x / 2))} for the 4-dof chi-square with per-branch mean gamma
    if gamma == np.inf:
        return 0.0  # the limit, where gamma / (2 + gamma) would be nan
    p = 0.5 * (1.0 - np.sqrt(gamma / (2.0 + gamma)))
    return float(3.0 * p**2 - 2.0 * p**3)


def pep_astbc(q: AbepQuery) -> float:
    """Unconditional pairwise error probability of the coded scheme."""
    return _diversity_kernel(q.n * q.rho)


def union_bound_antenna(q: AbepQuery) -> float:
    """Union bound on the antenna-index error probability (raw: it may exceed 1)."""
    return q.m**2 * (q.nt - 1) * pep_astbc(q)


def abep_source(q: AbepQuery) -> float:
    """Average bit error probability of the source's index bits.

    Half the union bound, rescaled from index errors to bit errors and
    capped at 1/2.
    """
    return min(0.5 * union_bound_antenna(q) * q.nt / (q.nt - 1), 0.5)


def psk_demod_abep(q: AbepQuery) -> float:
    """Average PSK bit error probability given a correct antenna decision."""
    total = sum(
        _diversity_kernel(q.rho * psk_g(i, q.m) * q.n)
        for i in range(1, max(q.m // 4, 1) + 1)
    )
    return float(2.0 / max(np.log2(q.m), 2.0) * total)


def abep_ris(q: AbepQuery) -> float:
    """Average bit error probability of the surface's phase bits.

    Mixes the PSK demodulation error (correct antenna decision) with a
    coin-flip penalty weighted by the antenna union bound, and holds the
    mixture to 1/2.  The bound is held to 1 first: raw, it exceeds 1 at low
    SNR, where it would weight the PSK term negatively.
    """
    pe = min(union_bound_antenna(q), 1.0)
    return float(min(0.5 * pe + (1.0 - pe) * psk_demod_abep(q), 0.5))


def abep_source_asymptotic(q: AbepQuery) -> float:
    """High-SNR source ABEP: (3/8) M^2 Nt (rho N)^-2, diversity order two."""
    return 0.375 * q.m**2 * q.nt * (q.rho * q.n) ** -2


def abep_ris_asymptotic(q: AbepQuery) -> float:
    """High-SNR surface ABEP: half the asymptotic union bound plus the
    asymptotic PSK term."""
    pe = 0.75 * q.m**2 * (q.nt - 1) * (q.rho * q.n) ** -2
    pa = (
        1.5
        / max(np.log2(q.m), 2.0)
        * sum(
            (q.rho * psk_g(i, q.m) * q.n) ** -2
            for i in range(1, max(q.m // 4, 1) + 1)
        )
    )
    return float(0.5 * pe + pa)


def abep_beamformed(rho: float, n: int, nt: int, m: int | None) -> tuple[float | None, None]:
    """The beamformed schemes' closed form: the Gaussian approximation's
    source ABEP at two antennas, None beyond; no surface bits."""
    return (abep_pb_two_tx(AbepQuery(rho=rho, n=n, nt=2)) if nt == 2 else None), None


def abep_coded(rho: float, n: int, nt: int, m: int) -> tuple[float, float]:
    """The two-slot code's closed form: its source and surface ABEPs."""
    q = AbepQuery(rho=rho, n=n, nt=nt, m=m)
    return abep_source(q), abep_ris(q)


def analytic_abep(
    form: Callable | None, rho: float, n: int, nt: int, m: int | None
) -> tuple[float | None, float | None]:
    """(source, surface) ABEP of ``form``, a scheme's closed-form cell: a
    function of (rho, n, nt, m) such as :func:`abep_coded`.  (None, None)
    for no form (the alignment and direct-link baselines) and at non-finite
    SNR (the noiseless mode), which has no closed-form operating point."""
    if form is None or not np.isfinite(rho):
        return None, None
    return form(rho, n, nt, m)
