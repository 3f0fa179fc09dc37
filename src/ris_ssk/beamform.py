"""Reflection-coefficient optimizers for minimum-distance passive beamforming.

The design objective throughout is the minimum squared distance between the
noiseless receive points of any two transmit antennas.  The optimizers
return unit-modulus coefficients; the closed forms take leading trial axes:

* closed form for two antennas,
* a semidefinite-relaxation pipeline (low-rank factorized first-order solve,
  Gaussian randomization rounding, unit-modulus polish),
* a candidate-set heuristic built from the pairwise closed forms,
* an exhaustive phase-grid search used as a validation oracle,
* instantaneous-SNR alignment to each possible active antenna (baseline scheme).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import ChannelRealization, cascaded_gains

_TWO_PI = 2.0 * np.pi


@dataclass
class SdrDiagnostics:
    """Per-solve bookkeeping for the relaxation pipeline.

    ``iterations`` counts the relaxation's ascent steps summed over its
    restarts; the polish steps are not counted.  ``converged`` is True when
    the best restart left the last temperature stage by the gain tolerance
    (or a collapsed step) rather than at the iteration cap; a solve that
    ends at the cap is still valid, its best iterate is used.
    """

    iterations: int
    converged: bool
    relaxation_objective: float
    candidate_index: int
    d_min: float


@dataclass
class ReflectionVector:
    """The relaxation's unit-modulus reflection coefficients and diagnostics."""

    phi: np.ndarray
    diagnostics: SdrDiagnostics | None = field(default=None, repr=False, compare=False)


# Ascent schedules: restarts, ascent steps per temperature stage, and the
# soft-minimum temperatures (times the pair-row scale) of the relaxation and
# of the polish.  The factor rank is min(N, ceil(sqrt(2K)) + 1) for K
# antenna pairs.  A solve's time tracks its step count: at N=16, Nt=4 a
# step costs about 42 us for the 3 restarts, 68 us for 100 polished
# candidates and 43 us for 20 (2-vCPU Xeon).  The longer 10 x 80
# relaxation and 8 x 60 polish took 2.5x the steps for under 0.4% more
# mean d_min.  The polish is a race (successive halving, Jamieson &
# Talwalkar 2016), as (stages, candidates kept): all _ROUNDINGS Gaussian
# randomization vectors run 3 stages, the best 20 all 8.  That costs
# under 0.01% of mean d_min; pruning after 2 stages lost 3% on a channel.
_RESTARTS = 3
_SOLVER_ITERATIONS = 40
_TEMPERATURES = np.geomspace(1.0, 1e-4, 5)
_POLISH_ITERATIONS = 30
_POLISH_TEMPERATURES = np.geomspace(0.3, 1e-4, 8)
_ROUNDINGS = 100
_POLISH_RACE = ((3, _ROUNDINGS), (5, 20))


@lru_cache(maxsize=None)
def _pairs(nt: int) -> tuple[np.ndarray, np.ndarray]:
    """Antenna index arrays (i, j) of every pair i < j, in row-major order."""
    pairs = np.triu_indices(nt, 1)
    for idx in pairs:
        idx.flags.writeable = False
    return pairs


def _dmin(gains: np.ndarray) -> np.ndarray:
    """Minimum pairwise squared distance over the antenna axis of ``gains`` (..., Nt)."""
    i, j = _pairs(gains.shape[-1])
    return (np.abs(gains[..., i] - gains[..., j]) ** 2).min(axis=-1)


def min_pairwise_distance(ch: ChannelRealization, phi) -> float:
    """Minimum squared distance between any two antennas' receive points
    (one channel, one coefficient vector)."""
    if ch.nt < 2:
        raise ValueError("need at least two transmit antennas")
    return _dmin(cascaded_gains(ch.G, ch.f, getattr(phi, "phi", phi))).item()


def _pair_rows(ch: ChannelRealization) -> np.ndarray:
    """Rows a_p = f * (g_i - g_j) for all antenna pairs i < j, shaped (..., K, N)."""
    i, j = _pairs(ch.nt)
    cols = np.swapaxes(ch.G, -1, -2)
    return ch.f[..., None, :] * (cols[..., i, :] - cols[..., j, :])


def _align(u: np.ndarray) -> np.ndarray:
    """Unit-modulus conj(u)/|u|, which turns each u onto the positive real
    axis; 1 (phase 0) where u = 0.  Every closed form aligns through it, so
    equal inputs give bit-equal coefficients on every path."""
    mag = np.abs(u)
    zero = mag == 0
    mag += zero
    out = u.conj()
    out += zero
    out /= mag
    return out


def optimal_two_tx(ch: ChannelRealization) -> np.ndarray:
    """Closed-form distance-maximizing coefficients for exactly two antennas.

    Aligns every term f_i (g_i1 - g_i2) to the positive real axis, so the
    cascade equals sum_i |f_i| |g_i1 - g_i2|.  Elements with a zero product
    get phase 0.  Returns (..., N) for channels with leading axes (...).
    """
    if ch.nt != 2:
        raise ValueError("closed form requires exactly two transmit antennas")
    return _align(_pair_rows(ch)[..., 0, :])


def intelligent_ris_phases(ch: ChannelRealization) -> np.ndarray:
    """Coefficients aligning every element to the cascade of each antenna.

    Row l of the (..., Nt, N) result maximizes the instantaneous receive
    SNR when the 0-based antenna l is active; its cascade is real and equals
    sum_i |f_i| |g_il|.
    """
    return _align(ch.f[..., None, :] * np.swapaxes(ch.G, -1, -2))


def low_complexity_beamform(ch: ChannelRealization) -> np.ndarray:
    """Best of the Nt(Nt-1)/2 pairwise closed-form candidates.

    Evaluates the two-antenna alignment for every antenna pair and keeps
    the candidate with the largest minimum pairwise distance (ties broken
    by candidate order).  Returns (..., N) for channels with leading axes.
    """
    if ch.nt < 2:
        raise ValueError("need at least two transmit antennas")
    cand = _align(_pair_rows(ch))
    best = _dmin(cascaded_gains(ch.G, ch.f, cand)).argmax(axis=-1)
    return np.take_along_axis(cand, best[..., None, None], axis=-2)[..., 0, :]


def brute_force_beamform(ch: ChannelRealization, levels: int) -> np.ndarray:
    """Exhaustive search over a uniform phase grid (validation oracle).

    Every element phase ranges over {2 pi k / levels}; the grid-global
    argmax of the minimum pairwise distance is returned.  Refuses grids
    of more than 2^20 evaluations.
    """
    if ch.nt < 2:
        raise ValueError("need at least two transmit antennas")
    if levels < 1:
        raise ValueError("levels must be at least 1")
    total = levels**ch.n
    if total > 1 << 20:
        fit = int(2 ** (20 / ch.n) + 1e-9)
        raise ValueError(f"grid of {levels}^{ch.n} = {total} evaluations exceeds the limit "
                         f"of 2^20; at n={ch.n}, levels of at most {fit} fit")
    table = np.exp(1j * _TWO_PI * np.arange(levels) / levels)
    best_d, best = -np.inf, None
    for start in range(0, total, 1 << 14):
        idx = np.arange(start, min(start + (1 << 14), total))
        coeffs = table[np.stack(np.unravel_index(idx, (levels,) * ch.n), axis=-1)]
        dmin = _dmin(cascaded_gains(ch.G, ch.f, coeffs))
        k = int(np.argmax(dmin))
        if dmin[k] > best_d:
            best_d, best = float(dmin[k]), coeffs[k]
    return best


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """Scale every row (last axis) to unit norm; a zero row becomes a constant one."""
    norm = np.sqrt((X * X.conj()).real.sum(axis=-1))[..., None]
    return np.divide(X, norm, out=np.full_like(X, X.shape[-1] ** -0.5), where=norm > 0)


def _anneal(A, X, scale, temps, step, iterations, tol):
    """Batched projected ascent on the soft minimum of the pair energies.

    ``X`` stacks B independent problems as an (n, B, r) array of unit-norm
    rows.  Problem b ascends the log-sum-exp soft minimum over k of
    q_kb = ||(A X_b)_k||^2 at each temperature in turn, renormalizing rows
    after every step.  Each problem keeps its own step (x1.2 on accept,
    x0.5 on reject) and leaves a stage once an accepted gain falls below
    ``tol`` times its objective (``tol=0`` never does) or its step
    collapses.  The soft minimum's exponentials double as the gradient
    weights.  ``step`` is a scalar or one step per problem.  Returns X,
    q (K, B), the steps each problem took, which problems left the last
    stage early, and the step sizes they end with.

    The iterate shares one array with its products and the gradient weights
    one with the soft minima, so a step costs two merges if any problem
    rejects and none if all accept.  Each value takes the floating-point
    operations of the plain complex ascent, so iterates are bit-identical
    to it: rounding picks between candidates that reach the same optimum.
    """
    n, B, r = X.shape
    K = A.shape[0]
    AH = np.ascontiguousarray(A.conj().T)

    def sq_rows(Y):
        """Squared norm of every row of Y, shaped (..., B, 1)."""
        sq = (Y * Y.conj()).real
        return sq if r == 1 else sq.sum(axis=-1, keepdims=True)

    def softmin(Z, tau):
        """Gradient weights e / total (rows :K) and soft minimum (row K)."""
        q = sq_rows(Z[n:])[..., 0]
        lo = q.min(axis=0)
        e = np.exp((lo - q) / tau)
        total = e.sum(axis=0)
        W = np.empty((K + 1, B))
        np.divide(e, total, out=W[:K])
        np.subtract(lo, tau * np.log(total / K), out=W[K])
        return W

    # Z holds X over A X; the first A X uses X as laid out by the caller,
    # as a transposed operand takes another BLAS path and rounds otherwise.
    Z = np.empty((n + K, B, r), dtype=complex)
    Z[:n] = X
    Z[n:] = (A @ X.reshape(n, B * r)).reshape(K, B, r)
    step = np.full(B, step)
    taken = np.zeros(B, dtype=int)
    for tau in temps:
        W = softmin(Z, tau)
        active = np.ones(B, dtype=bool)
        everyone_active = True
        taken += iterations  # less, on stopping, the steps not taken
        for it in range(iterations):
            # X + step A^H (w A X), then unit rows (a zero row becomes the
            # constant one), then the products and soft minimum there.
            Z_new = np.empty_like(Z)
            Y = Z_new[:n]
            np.matmul(AH, (Z[n:] * W[:K, :, None]).reshape(K, B * r), out=Y.reshape(n, B * r))
            Y *= step[:, None]
            Y += Z[:n]
            norm = np.sqrt(sq_rows(Y))
            if np.count_nonzero(norm) < norm.size:
                zero = norm == 0
                Y += zero * r**-0.5
                norm += zero
            Y *= 1.0 / norm  # what complex-by-real division computes
            np.matmul(A, Y.reshape(n, B * r), out=Z_new[n:].reshape(K, B * r))
            W_new = softmin(Z_new, tau)
            s, s_new = W[K], W_new[K]
            acc = s_new >= s
            if not everyone_active:
                acc &= active
            stop = False
            if np.count_nonzero(acc) == B:
                step = step * 1.2
                Z, W = Z_new, W_new
            else:
                factor = np.where(acc, 1.2, 0.5)
                step = step * factor if everyone_active else np.where(active, step * factor, step)
                Z, W = np.where(acc[:, None], Z_new, Z), np.where(acc, W_new, W)
                collapsed = step < 1e-14 / scale
                if np.count_nonzero(collapsed):
                    stop = collapsed & (active ^ acc)
            if tol:
                stop = stop | (acc & (s_new - s < tol * np.maximum(np.abs(s_new), scale * 1e-12)))
            if np.count_nonzero(stop):
                taken[stop] -= iterations - 1 - it
                active ^= stop
                everyone_active = False
                if not np.count_nonzero(active):
                    break
    return Z[:n], sq_rows(Z[n:])[..., 0], taken, ~active, step


def sdr_beamform(ch: ChannelRealization, rng: np.random.Generator) -> ReflectionVector:
    """Semidefinite-relaxation beamformer with randomization rounding.

    Solves the lifted max-min program approximately through a low-rank
    factorization, draws 100 Gaussian vectors through the factor,
    normalizes each to unit modulus, polishes the candidates on the
    unit-modulus set (a race: the best 20 get the full polish), and returns
    the candidate with the largest minimum pairwise distance.  Candidates
    within relative 1e-9 of it count as ties, which go to the lowest draw
    index, polished before raw.
    Deterministic given ``rng``; solver stall is not an error (the best
    iterate is used and flagged in the diagnostics).
    """
    if ch.nt < 2:
        raise ValueError("need at least two transmit antennas")
    A = _pair_rows(ch)
    K, T = A.shape[0], _ROUNDINGS
    rank = min(ch.n, int(np.ceil(np.sqrt(2 * K))) + 1)
    scale = float(np.mean(np.linalg.norm(A, axis=1) ** 2)) or 1.0

    # Relaxation: maximize the soft minimum of tr(R_p X X^H) over n x rank
    # factors with unit-norm rows (unit diagonal of the lifted matrix),
    # one problem per restart; the best restart by hard minimum is kept.
    z = rng.standard_normal((_RESTARTS, 2, ch.n, rank))
    X0 = _unit_rows((z[:, 0] + 1j * z[:, 1]).transpose(1, 0, 2))
    X, q, taken, done, _ = _anneal(
        A, X0, scale, _TEMPERATURES * scale, 1.0 / scale, _SOLVER_ITERATIONS, 1e-8
    )
    b = int(np.argmax(q.min(axis=0)))

    # Gaussian randomization through the factor, then the rank-one polish
    # on the unit-modulus set (unit norm of a length-1 row).
    z = rng.standard_normal((T, 2, rank))
    cand = _unit_rows((X[:, b] @ (z[:, 0] + 1j * z[:, 1]).T)[:, :, None])[:, :, 0]
    d_raw = _dmin(cascaded_gains(ch.G, ch.f, cand.T))
    order = np.lexsort((np.arange(T), -d_raw))

    # The polish races the candidates, best raw distance first, through the
    # _POLISH_RACE stage groups; after each group only the best by hard
    # minimum (stable order) run on, with their own iterate and step.  The
    # rest keep the vector they reached.
    polished = np.empty_like(cand)
    Y, step, first = cand[:, order, None], 0.5 / scale, 0
    for stages, keep in _POLISH_RACE:
        if first:
            live = np.sort(np.argsort(-q_pol.min(axis=0), kind="stable")[:keep])
            # take() keeps Y C-contiguous, so a race that prunes nothing
            # rounds as one _anneal call over all stages would
            Y, step, order = Y.take(live, axis=1), step[live], order[live]
        temps = _POLISH_TEMPERATURES[first:first + stages] * scale
        Y, q_pol, _, _, step = _anneal(A, Y, scale, temps, step, _POLISH_ITERATIONS, 0.0)
        polished[:, order] = Y[:, :, 0]
        first += stages

    # Scan in draw order, each candidate polished then raw.  Candidates that
    # reach one optimum agree only to rounding, so the first within relative
    # 1e-9 of the best wins, not whichever rounding favours.
    vecs = np.stack([polished, cand], axis=2).reshape(ch.n, -1)
    d = _dmin(cascaded_gains(ch.G, ch.f, vecs.T))
    k = int(np.argmax(d >= d.max() * (1 - 1e-9)))
    best_vec = vecs[:, k]
    diag = SdrDiagnostics(
        iterations=int(taken.sum()),
        converged=bool(done[b]),
        relaxation_objective=float(q[:, b].min()),
        candidate_index=k // 2,
        d_min=float(d[k]),
    )
    return ReflectionVector(phi=best_vec, diagnostics=diag)
