import warnings

import numpy as np
import pytest

from ris_ssk import beamform
from ris_ssk.beamform import (
    _anneal,
    _pair_rows,
    _unit_rows,
    brute_force_beamform,
    intelligent_ris_phases,
    low_complexity_beamform,
    min_pairwise_distance,
    optimal_two_tx,
    sdr_beamform,
)
from ris_ssk.channel import ChannelRealization, cascaded_gains, sample_channel, substream


def _channel(n, nt, seed, trial=0):
    return sample_channel(n, nt, substream(seed, trial, "oracle"))


def _gain(ch, phi, l):
    """Plain per-element sum of the cascade seen from antenna l."""
    return sum(ch.f[i] * ch.G[i, l] * phi[i] for i in range(ch.n))


def _stack(chs):
    """The channels as one realization with a leading trial axis."""
    return ChannelRealization(G=np.stack([c.G for c in chs]), f=np.stack([c.f for c in chs]))


class TestMinPairwiseDistance:
    def test_single_element_two_antennas(self):
        ch = ChannelRealization(G=np.array([[1.0 + 0j, 0.0 + 0j]]), f=np.array([1.0 + 0j]))
        assert min_pairwise_distance(ch, np.ones(1, complex)) == pytest.approx(1.0)

    def test_degenerate_identical_columns(self):
        g = substream(1, 0).standard_normal(4) + 0j
        ch = ChannelRealization(G=np.stack([g, g], axis=1), f=np.ones(4, complex))
        phi = np.exp(1j * substream(1, 1).uniform(0, 2 * np.pi, 4))
        assert min_pairwise_distance(ch, phi) == pytest.approx(0.0)

    def test_matches_pairwise_enumeration_oracle(self):
        ch = _channel(4, 3, 5)
        phi = np.exp(1j * substream(5, 1).uniform(0, 2 * np.pi, 4))
        dists = []
        for a in range(3):
            for b in range(a + 1, 3):
                dists.append(abs(_gain(ch, phi, a) - _gain(ch, phi, b)) ** 2)
        assert len(dists) == 3
        assert min_pairwise_distance(ch, phi) == pytest.approx(min(dists))

    def test_requires_two_antennas(self):
        ch = _channel(4, 1, 2)
        with pytest.raises(ValueError):
            min_pairwise_distance(ch, np.ones(4, complex))

    def test_global_phase_invariance(self):
        ch = _channel(6, 4, 7)
        theta = substream(7, 1).uniform(0, 2 * np.pi, 6)
        shift = substream(7, 2).uniform(0, 2 * np.pi)
        d0 = min_pairwise_distance(ch, np.exp(1j * theta))
        d1 = min_pairwise_distance(ch, np.exp(1j * (theta + shift)))
        assert d1 == pytest.approx(d0, rel=1e-12)


class TestOptimalTwoTx:
    def test_single_element_example(self):
        # f = 1, g11 = j, g12 = -j: angle(g11 - g12) = pi/2, so theta = 3pi/2
        ch = ChannelRealization(G=np.array([[1j, -1j]]), f=np.array([1.0 + 0j]))
        phi = optimal_two_tx(ch)
        assert phi[0] == pytest.approx(np.exp(1j * 3 * np.pi / 2))
        assert min_pairwise_distance(ch, phi) == pytest.approx(4.0)

    def test_cascade_real_nonnegative_and_equals_modulus_sum(self):
        ch = _channel(8, 2, 11)
        phi = optimal_two_tx(ch)
        assert np.allclose(np.abs(phi), 1.0, atol=1e-15)
        cascade = np.sum(ch.f * (ch.G[:, 0] - ch.G[:, 1]) * phi)
        want = np.sum(np.abs(ch.f) * np.abs(ch.G[:, 0] - ch.G[:, 1]))
        assert cascade.imag == pytest.approx(0.0, abs=1e-12 * want)
        assert cascade.real == pytest.approx(want)

    def test_beats_random_search_oracle(self):
        ch = _channel(8, 2, 13)
        d_opt = min_pairwise_distance(ch, optimal_two_tx(ch))
        rng = substream(13, 1, "oracle")
        for _ in range(1000):
            d = min_pairwise_distance(ch, np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))
            assert d_opt >= d

    def test_matches_exhaustive_grid_within_resolution(self):
        ch = _channel(2, 2, 17)
        d_opt = min_pairwise_distance(ch, optimal_two_tx(ch))
        d_grid = min_pairwise_distance(ch, brute_force_beamform(ch, 64))
        assert d_grid <= d_opt
        # 64-level grid phase error <= pi/64 per element
        assert d_grid >= d_opt * np.cos(np.pi / 64) ** 2 * 0.99

    def test_zero_product_entries_get_zero_phase(self):
        ch = ChannelRealization(G=np.array([[1j, 1j], [1j, -1j]]), f=np.array([1.0 + 0j, 1 + 0j]))
        assert optimal_two_tx(ch)[0] == 1.0  # g11 - g12 = 0 there

    def test_requires_exactly_two(self):
        with pytest.raises(ValueError):
            optimal_two_tx(_channel(4, 4, 1))


class TestLeadingTrialAxes:
    """A stack of channels gives, row by row, the one-channel coefficients."""

    @pytest.mark.parametrize("nt", [2, 4, 8])
    def test_closed_forms_match_one_channel_calls(self, nt):
        chs = [_channel(8, nt, 97, t) for t in range(12)]
        chs[3] = ChannelRealization(G=chs[3].G, f=np.zeros(8, complex))  # zero-gain row
        batch = _stack(chs)
        two = [optimal_two_tx] if nt == 2 else []
        for beamformer in [low_complexity_beamform, intelligent_ris_phases] + two:
            got = beamformer(batch)
            for t, ch in enumerate(chs):
                assert np.array_equal(got[t], beamformer(ch))
        assert np.array_equal(low_complexity_beamform(batch)[3], np.ones(8))


class TestPairMatrix:
    """The solver's stacked pair rows a_p: |a_p . phi|^2 is the pair distance."""

    @staticmethod
    def _check_quadratic_form(ch, rng):
        rows = _pair_rows(ch)
        assert rows.shape == (6, 6)  # Nt(Nt-1)/2 pairs by N elements
        for _ in range(100):
            phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
            cascade = ch.f * phi
            want = [
                abs(ch.G[:, i] @ cascade - ch.G[:, j] @ cascade) ** 2
                for i in range(4)
                for j in range(i + 1, 4)
            ]
            assert np.abs(rows @ phi) ** 2 == pytest.approx(want, rel=1e-12)

    def test_quadratic_form_matches_direct_evaluation(self):
        self._check_quadratic_form(_channel(6, 4, 29), substream(29, 1, "oracle"))

    def test_zero_f_gives_zero_matrix(self):
        ch = _channel(6, 4, 29)
        dead = ChannelRealization(G=ch.G, f=np.zeros(6, complex))
        self._check_quadratic_form(dead, substream(29, 1, "oracle"))
        assert not _pair_rows(dead).any()


class TestLowComplexity:
    def test_two_antennas_single_candidate_equals_closed_form(self):
        ch = _channel(8, 2, 37)
        lc = low_complexity_beamform(ch)
        opt = optimal_two_tx(ch)
        assert np.array_equal(lc, opt)
        assert min_pairwise_distance(ch, lc) == min_pairwise_distance(ch, opt)

    def test_argmax_over_all_pair_candidates(self):
        ch = _channel(4, 4, 41)
        cands = []
        for i in range(4):
            for j in range(i + 1, 4):
                theta = -np.angle(ch.f) - np.angle(ch.G[:, i] - ch.G[:, j])
                cands.append(min_pairwise_distance(ch, np.exp(1j * theta)))
        assert len(cands) == 6  # Nt(Nt-1)/2 candidates for Nt=4
        got = min_pairwise_distance(ch, low_complexity_beamform(ch))
        assert got == pytest.approx(max(cands), rel=1e-12)
        assert all(got >= c * (1 - 1e-12) for c in cands)

    def test_matches_pairwise_reference_loop(self):
        for trial in range(200):
            ch = _channel(8, (2, 4, 8)[trial % 3], 43, trial)
            best_phi, best_d = None, -np.inf
            for i in range(ch.nt):
                for j in range(i + 1, ch.nt):
                    u = ch.f * (ch.G[:, i] - ch.G[:, j])
                    phi = np.conj(u) / np.abs(u)
                    d = min_pairwise_distance(ch, phi)
                    if d > best_d:
                        best_d, best_phi = d, phi
            assert np.array_equal(low_complexity_beamform(ch), best_phi)


class TestBruteForce:
    def test_single_element_enumeration(self):
        ch = _channel(1, 2, 43)
        rv = brute_force_beamform(ch, 4)
        best = max(
            min_pairwise_distance(ch, np.exp(1j * np.array([2 * np.pi * k / 4])))
            for k in range(4)
        )
        assert min_pairwise_distance(ch, rv) == pytest.approx(best)

    def test_grid_max_over_65536_combos(self):
        ch = _channel(4, 4, 47)
        rv = brute_force_beamform(ch, 16)
        d = min_pairwise_distance(ch, rv)
        # spot-check dominance on a random sample of grid points
        rng = substream(47, 1, "oracle")
        for _ in range(500):
            combo = rng.integers(0, 16, 4)
            assert d >= min_pairwise_distance(ch, np.exp(1j * 2 * np.pi * combo / 16)) - 1e-12

    def test_budget_enforced(self):
        ch = _channel(8, 2, 53)
        # 16^8 points, past the 2^20 limit; 5^8 fits and 6^8 does not
        with pytest.raises(ValueError, match="levels of at most 5 fit"):
            brute_force_beamform(ch, 16)


class TestIntelligentPhases:
    def test_sign_flip_single_element(self):
        ch = ChannelRealization(G=np.array([[-1.0 + 0j]]), f=np.array([1.0 + 0j]))
        phases = intelligent_ris_phases(ch)
        assert phases.shape == (1, 1)
        assert phases[0, 0] == pytest.approx(-1.0)
        assert _gain(ch, phases[0], 0) == pytest.approx(1.0)

    def test_gain_equals_modulus_sum(self):
        ch = _channel(16, 4, 59)
        table = cascaded_gains(ch.G, ch.f, intelligent_ris_phases(ch))
        for l in range(4):
            want = np.sum(np.abs(ch.f) * np.abs(ch.G[:, l]))
            assert table[l, l] == pytest.approx(want, rel=1e-12)

    def test_dominates_random_phases(self):
        ch = _channel(8, 2, 61)
        phi = intelligent_ris_phases(ch)[1]
        best = abs(_gain(ch, phi, 1)) ** 2
        rng = substream(61, 1, "oracle")
        for _ in range(1000):
            psi = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
            assert best >= abs(_gain(ch, psi, 1)) ** 2


def _sq_norms(X):
    return (X * X.conj()).real.sum(axis=-1)


def _anneal_reference(A, X, scale, temps, step, iterations, tol):
    """The ascent of beamform._anneal as plain complex arrays, merging each
    state array at every step: the reference the kernel must match."""
    n, B, r = X.shape
    K = A.shape[0]
    AH = np.ascontiguousarray(A.conj().T)

    def softmin(Q, tau):
        q = _sq_norms(Q)
        lo = q.min(axis=0)
        e = np.exp((lo - q) / tau)
        total = e.sum(axis=0)
        return lo - tau * np.log(total / K), e / total

    Q = (A @ X.reshape(n, B * r)).reshape(K, B, r)
    step = np.full(B, step)
    taken = np.zeros(B, dtype=int)
    for tau in temps:
        s, w = softmin(Q, tau)
        active = np.ones(B, dtype=bool)
        for _ in range(iterations):
            taken += active
            grad = (AH @ (w[:, :, None] * Q).reshape(K, B * r)).reshape(n, B, r)
            X_new = _unit_rows(X + step[:, None] * grad)
            Q_new = (A @ X_new.reshape(n, B * r)).reshape(K, B, r)
            s_new, w_new = softmin(Q_new, tau)
            acc = active & (s_new >= s)
            step = np.where(active, step * np.where(acc, 1.2, 0.5), step)
            stop = (active ^ acc) & (step < 1e-14 / scale)
            if tol:
                stop |= acc & (s_new - s < tol * np.maximum(np.abs(s_new), scale * 1e-12))
            active ^= stop
            X, Q = np.where(acc[:, None], X_new, X), np.where(acc[:, None], Q_new, Q)
            w, s = np.where(acc, w_new, w), np.where(acc, s_new, s)
            if not active.any():
                break
    return X, _sq_norms(Q), taken, ~active, step


# (n, nt, B, r, relaxation?) problems for the kernel check, named by what
# they cover.  Each is conditioned well enough for a 1e-9 comparison: the
# reference moves by less than 1e-10 under a one-ulp change of its start.
# (On problems where every candidate reaches the same optimum, such as the
# polish at Nt=2, the accept tests near the top are ties, decided by rounding
# and by any change of summation order.)
ANNEAL_PROBLEMS = {
    "relaxation": (16, 4, 3, 5, True),
    "polish": (16, 4, 100, 1, False),
    "two-antennas": (8, 2, 3, 3, True),
    "one-problem-relaxation": (16, 4, 1, 5, True),
    "one-problem-polish": (16, 4, 1, 1, False),
}


def _anneal_args(n, nt, B, r, relaxation, seed=2031):
    ch = _channel(n, nt, seed)
    A = _pair_rows(ch)
    scale = float(np.mean(np.linalg.norm(A, axis=1) ** 2))
    z = substream(seed, 0, "sdr").standard_normal((2, n, B, r))
    X = _unit_rows(z[0] + 1j * z[1])
    if relaxation:
        return A, X, scale, beamform._TEMPERATURES * scale, 1.0 / scale, beamform._SOLVER_ITERATIONS, 1e-8
    return A, X, scale, beamform._POLISH_TEMPERATURES * scale, 0.5 / scale, beamform._POLISH_ITERATIONS, 0.0


def _spy_anneal(monkeypatch):
    """Record every (arguments, result) of beamform._anneal from now on."""
    calls = []
    anneal = beamform._anneal

    def spy(*args):
        calls.append((args, anneal(*args)))
        return calls[-1][1]

    monkeypatch.setattr(beamform, "_anneal", spy)
    return calls


def _assert_same_ascent(got, want, rel):
    for a, b in zip(got[:2], want[:2]):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))
    for a, b in zip(got[2:], want[2:]):
        np.testing.assert_array_equal(a, b)


class TestAnnealKernel:
    """The kernel's ascent equals the plain complex reference on the same data."""

    @pytest.mark.parametrize("problem", ANNEAL_PROBLEMS.values(), ids=ANNEAL_PROBLEMS.keys())
    def test_matches_complex_reference(self, problem):
        args = _anneal_args(*problem)
        want = _anneal_reference(*args)
        nudged = _anneal_reference(args[0], args[1] * (1 + 2.0**-52), *args[2:])
        _assert_same_ascent(nudged, want, 1e-10)
        _assert_same_ascent(_anneal(*args), want, 1e-9)

    @pytest.mark.parametrize("n,nt,seed", [(8, 2, 13), (4, 4, 43), (16, 4, 2026)])
    def test_bit_identical_on_the_solver_inputs(self, n, nt, seed, monkeypatch):
        # Sweep outputs stay the same only if every iterate does.  The
        # relaxation is one call, the polish one per stage group of the race
        # (survivors carry their own steps); its first input arrives
        # transposed in memory.
        calls = _spy_anneal(monkeypatch)
        sdr_beamform(_channel(n, nt, seed), rng=substream(seed, 0, "sdr"))
        assert len(calls) == 1 + len(beamform._POLISH_RACE)
        assert not calls[1][0][1].flags.c_contiguous
        assert np.ndim(calls[2][0][4]) == 1
        for args, got in calls:
            for a, b in zip(got, _anneal_reference(*args)):
                np.testing.assert_array_equal(a, b)

    def test_zero_row_becomes_constant_like_reference(self):
        # f_i = 0 zeroes column i of the pair rows, so a zero start row i has
        # zero gradient and both kernels must map it to the constant row.
        A, X, *rest = _anneal_args(6, 4, 3, 3, True)
        A[:, 2] = 0
        X[2] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _anneal(A, X, *rest)
        want = _anneal_reference(A, X, *rest)
        _assert_same_ascent(got, want, 1e-9)
        np.testing.assert_allclose(got[0][2], np.full((3, 3), 3**-0.5), rtol=1e-15)


# d_min reported by sdr_beamform at default options on (n, nt, seed, trial)
# channels under the longer ascent schedules that the current ones replaced
# (relaxation 10 x 80, polish 8 x 60).  The current value may trail it by at
# most 0.5%.
SDR_LONG_SCHEDULE_DMIN = [
    (16, 4, 2026, 0, 95.9143116078761),
    (16, 4, 2026, 1, 92.43807742424211),
    (16, 4, 2026, 2, 103.63287885690981),
    (4, 4, 2027, 0, 6.369030475269999),
    (4, 4, 2027, 1, 1.1431887758532666),
    (4, 4, 2027, 2, 1.7992984997439765),
    (8, 2, 2028, 0, 91.67864409434704),
    (8, 2, 2028, 1, 62.13383177610396),
]

# The same channels' d_min under the current schedules (relaxation 5 x 40,
# polish 8 x 30), pinned to 1e-6.
SDR_GOLDEN_DMIN = {
    (16, 4, 2026, 0): 95.89997377137888,
    (16, 4, 2026, 1): 92.42795796511734,
    (16, 4, 2026, 2): 103.59565970609849,
    (4, 4, 2027, 0): 6.367784319569835,
    (4, 4, 2027, 1): 1.1431887758532666,
    (4, 4, 2027, 2): 1.7992015484184052,
    (8, 2, 2028, 0): 91.67864409434704,
    (8, 2, 2028, 1): 62.13383177610396,
}

# Mean d_min of sdr_beamform over the ten N=16, Nt=4 channels of seed 2029
# under the longer 10 x 80 / 8 x 60 schedules.
SDR_LONG_SCHEDULE_MEAN_DMIN = 97.2821235014889


def _full_polish():
    """A race that keeps every candidate through every polish stage."""
    return ((len(beamform._POLISH_TEMPERATURES), beamform._ROUNDINGS),)


def _solve(n, nt, seed, trial=0):
    return sdr_beamform(_channel(n, nt, seed, trial), rng=substream(seed, trial, "sdr"))


class TestPolishRace:
    """The raced polish against one that takes every candidate all the way."""

    @pytest.mark.parametrize("n,nt,seed", [(8, 2, 13), (4, 4, 43), (16, 4, 2026)])
    def test_keeping_everyone_equals_one_call(self, n, nt, seed, monkeypatch):
        got = []
        for race in (_full_polish(), ((3, 100), (5, 100)), ((1, 100),) * 8):
            monkeypatch.setattr(beamform, "_POLISH_RACE", race)
            got.append(_solve(n, nt, seed))
        for rv in got[1:]:
            np.testing.assert_array_equal(rv.phi, got[0].phi)
            assert rv.diagnostics == got[0].diagnostics

    def test_raced_dmin_holds_against_full_polish(self, monkeypatch):
        # 40 channels of a seed no golden uses
        raced = np.array([_solve(16, 4, 2030, t).diagnostics.d_min for t in range(40)])
        monkeypatch.setattr(beamform, "_POLISH_RACE", _full_polish())
        full = np.array([_solve(16, 4, 2030, t).diagnostics.d_min for t in range(40)])
        assert np.mean(raced / full) >= 0.99999
        assert np.min(raced / full) >= 0.999

    @pytest.mark.parametrize("rounding_count", [7, 8])
    def test_fewer_candidates_than_survivors_all_run_on(self, rounding_count, monkeypatch):
        monkeypatch.setattr(beamform, "_ROUNDINGS", rounding_count)
        calls = _spy_anneal(monkeypatch)
        raced = _solve(16, 4, 2030)
        assert [args[1].shape[1] for args, _ in calls[1:]] == [rounding_count] * len(beamform._POLISH_RACE)
        monkeypatch.setattr(beamform, "_POLISH_RACE", _full_polish())
        full = _solve(16, 4, 2030)
        np.testing.assert_array_equal(raced.phi, full.phi)
        assert raced.diagnostics == full.diagnostics

    @pytest.mark.parametrize("raced", [True, False], ids=["raced", "full-polish"])
    def test_pick_survives_a_one_ulp_nudge(self, raced, monkeypatch):
        # Polished candidates that reach one optimum agree only to rounding
        # (at Nt=2 all of them do), so a one-ulp change of every polish
        # result must leave the pick, and so the phases, where they were.
        if not raced:
            monkeypatch.setattr(beamform, "_POLISH_RACE", _full_polish())
        anneal = beamform._anneal

        def nudged(A, X, *rest):
            out = anneal(A, X, *rest)
            return (out[0] * (1 + 2.0**-52), *out[1:]) if X.shape[2] == 1 else out

        for n, nt, seed in [(8, 2, 13), (4, 4, 12)]:
            for t in range(20):
                monkeypatch.setattr(beamform, "_anneal", anneal)
                want = _solve(n, nt, seed, t)
                monkeypatch.setattr(beamform, "_anneal", nudged)
                got = _solve(n, nt, seed, t)
                assert got.diagnostics.candidate_index == want.diagnostics.candidate_index
                np.testing.assert_allclose(got.phi, want.phi, rtol=0, atol=1e-6)


class TestSdrBeamform:
    @pytest.mark.parametrize("n,nt,seed,trial,floor", SDR_LONG_SCHEDULE_DMIN)
    def test_golden_dmin(self, n, nt, seed, trial, floor):
        ch = _channel(n, nt, seed, trial)
        rv = sdr_beamform(ch, rng=substream(seed, trial, "sdr"))
        assert rv.diagnostics.d_min == pytest.approx(SDR_GOLDEN_DMIN[n, nt, seed, trial], rel=1e-6)
        assert rv.diagnostics.d_min >= 0.995 * floor

    def test_mean_dmin_holds_against_long_schedule(self):
        d = [
            sdr_beamform(_channel(16, 4, 2029, t), rng=substream(2029, t, "sdr")).diagnostics.d_min
            for t in range(10)
        ]
        assert np.mean(d) >= 0.99 * SDR_LONG_SCHEDULE_MEAN_DMIN

    @pytest.mark.parametrize("n,nt,rounding_count", [(16, 4, 100), (4, 2, 7)])
    def test_stream_order(self, n, nt, rounding_count, monkeypatch):
        # restart inits (restarts, re/im, n, rank), then the rounding
        # vectors (count, re/im, rank), each in one draw
        monkeypatch.setattr(beamform, "_ROUNDINGS", rounding_count)
        ch = _channel(n, nt, 91)
        g = substream(91, 0, "sdr")
        ref = substream(91, 0, "sdr")
        sdr_beamform(ch, g)
        rank = min(n, int(np.ceil(np.sqrt(nt * (nt - 1)))) + 1)
        ref.standard_normal((3, 2, n, rank))
        ref.standard_normal((beamform._ROUNDINGS, 2, rank))
        np.testing.assert_equal(g.bit_generator.state, ref.bit_generator.state)

    def test_unit_modulus_and_reported_dmin_reproducible(self):
        ch = _channel(6, 4, 67)
        rv = sdr_beamform(ch, rng=substream(67, 0, "sdr"))
        assert np.allclose(np.abs(rv.phi), 1.0, atol=1e-12)
        assert rv.diagnostics is not None
        assert min_pairwise_distance(ch, rv) == pytest.approx(rv.diagnostics.d_min, rel=1e-12)

    def test_two_antenna_reaches_closed_form(self):
        for trial in range(10):
            ch = _channel(8, 2, 71, trial)
            d_opt = min_pairwise_distance(ch, optimal_two_tx(ch))
            rv = sdr_beamform(ch, rng=substream(71, trial, "sdr"))
            assert min_pairwise_distance(ch, rv) >= 0.99 * d_opt

    def test_near_grid_optimum_small_sample(self):
        wins = 0
        for trial in range(10):
            ch = _channel(4, 4, 79, trial)
            d_grid = min_pairwise_distance(ch, brute_force_beamform(ch, 16))
            d_sdr = min_pairwise_distance(ch, sdr_beamform(ch, rng=substream(79, trial, "sdr")))
            wins += d_sdr >= 0.95 * d_grid
        assert wins >= 8

    def test_zero_channel_gives_unit_modulus_and_zero_distance(self):
        ch = ChannelRealization(G=np.ones((4, 3), complex), f=np.zeros(4, complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rv = sdr_beamform(ch, rng=substream(1, 0, "sdr"))
        assert np.allclose(np.abs(rv.phi), 1.0)
        assert rv.diagnostics.d_min == 0.0

    @pytest.mark.parametrize("dead", ["identical-columns", "zero-f"])
    def test_degenerate_channel_gives_unit_modulus_and_finite_distance(self, dead):
        ch = _channel(8, 4, 73)
        if dead == "identical-columns":  # pair (0, 1) has a zero row: d_min is 0
            G = ch.G.copy()
            G[:, 1] = G[:, 0]
            ch = ChannelRealization(G=G, f=ch.f)
        else:
            ch = ChannelRealization(G=ch.G, f=np.where(np.arange(8) % 3 == 0, 0, ch.f))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rv = sdr_beamform(ch, rng=substream(73, 0, "sdr"))
            d = min_pairwise_distance(ch, rv)
        assert np.allclose(np.abs(rv.phi), 1.0, atol=1e-12)
        assert np.isfinite(rv.diagnostics.d_min)
        assert d == pytest.approx(rv.diagnostics.d_min, rel=1e-12, abs=1e-12)
        if dead == "identical-columns":
            assert d == pytest.approx(0.0, abs=1e-12)
        else:
            assert d > 0

    def test_deterministic_given_stream(self):
        ch = _channel(5, 4, 83)
        a = sdr_beamform(ch, rng=substream(83, 0, "sdr"))
        b = sdr_beamform(ch, rng=substream(83, 0, "sdr"))
        assert np.array_equal(a.phi, b.phi)

    def test_beats_zero_phase_floor_on_average(self):
        sdr_gain, lc_gain = [], []
        for trial in range(10):
            ch = _channel(4, 4, 89, trial)
            d_zero = min_pairwise_distance(ch, np.ones(4, complex))
            d_sdr = min_pairwise_distance(ch, sdr_beamform(ch, rng=substream(89, trial, "sdr")))
            d_lc = min_pairwise_distance(ch, low_complexity_beamform(ch))
            sdr_gain.append(d_sdr - d_zero)
            lc_gain.append(d_lc - d_zero)
        assert np.mean(sdr_gain) > 0
        assert np.mean(lc_gain) > 0
