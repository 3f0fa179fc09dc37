import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfc

from ris_ssk.analysis import (
    COMBINED_GAIN_PDF,
    PAIR_DISTANCE_PDF,
    AbepQuery,
    GaussianApproxParams,
    abep_pb_two_tx,
    abep_ris,
    abep_ris_asymptotic,
    abep_source,
    abep_source_asymptotic,
    analytic_abep,
    mgf_noncentral_chisq,
    pep_astbc,
    psk_demod_abep,
    psk_g,
    q_chiani,
    q_exact,
    union_bound_antenna,
)
from ris_ssk.channel import channel_draw_size, channel_views, complex_normals, substream


class TestQFunctions:
    def test_q_exact_against_integration_oracle(self):
        # independent oracle: numerically integrate the standard normal tail
        def tail(x):
            v, _ = quad(lambda t: np.exp(-t * t / 2) / np.sqrt(2 * np.pi), x, np.inf)
            return v

        for x in (0.0, 0.5, 1.0, 2.0, 4.0):
            assert q_exact(x) == pytest.approx(tail(x), abs=1e-12)
        assert q_exact(1.0) == pytest.approx(0.15865525393145707, abs=1e-12)

    def test_q_exact_is_half_erfc_bit_for_bit(self):
        # q_exact imports erfc lazily; its values must not move by one ulp
        extremes = [-1e300, -1e-300, 0.0, 1e-300, 38.5, 1e300, np.inf, -np.inf]
        xs = np.concatenate([np.linspace(-40.0, 40.0, 801), extremes])
        want = 0.5 * erfc(xs / np.sqrt(2.0))
        assert np.array_equal(q_exact(xs), want)
        assert all(q_exact(float(x)) == w for x, w in zip(xs, want))

    def test_q_exact_basic_identities(self):
        assert q_exact(0.0) == pytest.approx(0.5)
        rng = substream(1, 0, "oracle")
        for x in rng.standard_normal(20):
            assert q_exact(-x) == pytest.approx(1.0 - q_exact(x), abs=1e-14)

    def test_q_chiani_values(self):
        assert q_chiani(0.0) == pytest.approx(1.0 / 3.0)
        # frozen from direct evaluation: e^{-1/2}/12 + e^{-2/3}/4
        assert q_chiani(1.0) == pytest.approx(0.17889850140086754, abs=1e-12)

    def test_q_chiani_error_profile_vs_exact(self):
        # frozen from an oracle sweep: the approximation overshoots by
        # ~12.8% at x=1 and its error grows to ~29.6% by x=6
        xs = np.linspace(1.0, 6.0, 501)
        rel = np.abs(q_chiani(xs) - q_exact(xs)) / q_exact(xs)
        assert rel[0] == pytest.approx(0.12759267, abs=1e-6)
        assert rel.max() == pytest.approx(0.29598503, abs=1e-6)
        assert rel.max() < 0.30


class TestGaussianApproximation:
    def test_parameter_formulas(self):
        p = GaussianApproxParams.from_elements(128)
        assert p.mu_v == pytest.approx(np.sqrt(2) / 4 * np.pi * 128)
        assert p.sigma_v2 == pytest.approx((2 - np.pi**2 / 8) * 128)
        assert p.a2 == pytest.approx(p.mu_v**2, rel=1e-14)

    def test_mgf_at_zero_is_one(self):
        p = GaussianApproxParams.from_elements(32)
        assert mgf_noncentral_chisq(0.0, p) == pytest.approx(1.0)

    def test_mgf_central_limit(self):
        p = GaussianApproxParams(mu_v=0.0, sigma_v2=3.0, a2=0.0)
        s = -0.05
        assert mgf_noncentral_chisq(s, p) == pytest.approx((1 - 2 * 3.0 * s) ** -0.5)

    def test_mgf_pole_rejected(self):
        p = GaussianApproxParams.from_elements(16)
        with pytest.raises(ValueError):
            mgf_noncentral_chisq(1.0 / p.sigma_v2, p)

    def test_mgf_matches_monte_carlo_at_feasible_argument(self):
        # with s = -1e-5 the integrand keeps measurable spread, so a plain
        # Monte Carlo average of exp(s v^2) over true channel draws works
        n, s = 128, -1e-5
        rng = substream(2, 0, "oracle")
        total = np.empty(100_000)
        at, chunk = 0, 20_000
        while at < total.size:
            b = min(chunk, total.size - at)
            z = rng.standard_normal((b, 4 * n))
            f = (z[:, :n] + 1j * z[:, n : 2 * n]) / np.sqrt(2)
            dg = z[:, 2 * n : 3 * n] + 1j * z[:, 3 * n :]
            total[at : at + b] = (np.abs(f) * np.abs(dg)).sum(axis=1)
            at += b
        mc = np.mean(np.exp(s * total**2))
        want = mgf_noncentral_chisq(s, GaussianApproxParams.from_elements(n))
        assert mc == pytest.approx(want, rel=0.02)


class TestPbAbep:
    def test_low_snr_limit_is_one_third(self):
        assert abep_pb_two_tx(AbepQuery(rho=1e-15, n=64, nt=2)) == pytest.approx(1 / 3, rel=1e-6)

    def test_requires_two_antennas(self):
        with pytest.raises(ValueError):
            abep_pb_two_tx(AbepQuery(rho=0.1, n=8, nt=4))

    def test_agrees_with_quadrature_oracle_near_1e4(self):
        # pick the operating point where the closed form reads 1e-4, then
        # check it against direct integration of the defining expectation
        n = 128
        rho = 10 ** brentq(
            lambda lr: np.log10(abep_pb_two_tx(AbepQuery(rho=10**lr, n=n, nt=2))) + 4,
            -6.0,
            1.0,
        )
        params = GaussianApproxParams.from_elements(n)
        sig = np.sqrt(params.sigma_v2)

        def integrand(v):
            w = np.exp(-((v - params.mu_v) ** 2) / (2 * params.sigma_v2))
            return q_chiani(np.sqrt(rho / 2) * abs(v)) * w / np.sqrt(2 * np.pi * params.sigma_v2)

        oracle, _ = quad(integrand, params.mu_v - 12 * sig, params.mu_v + 12 * sig, limit=400)
        got = abep_pb_two_tx(AbepQuery(rho=rho, n=n, nt=2))
        assert got == pytest.approx(1e-4, rel=1e-6)
        assert got == pytest.approx(oracle, rel=1e-3)

    def test_closed_form_error_budget_at_criterion_1_points(self):
        # Against E[Q(sqrt(rho/2) v)] over the true aligned cascade
        # v = sum |f_i||g_i1 - g_i2| of 1e5 bulk channel draws, the closed
        # form reads 1.19-1.25 at criterion 1's N=64 points (relative
        # standard error <= 0.35%).  Nearly all of it is Chiani's
        # two-exponential tail: the CLT with exact Q is within 2.4% at N=64.
        # Criterion 1's 30% limit leaves the rest for Monte Carlo noise.
        n, channels, chunk = 64, 100_000, 10_000
        rng = substream(61, 0, "oracle")
        v = np.empty(channels)
        for at in range(0, channels, chunk):
            z = rng.standard_normal((chunk, channel_draw_size(n, 2)))
            complex_normals(z)
            G, f = channel_views(z, n, 2)
            v[at : at + chunk] = (np.abs(f) * np.abs(G[..., 0] - G[..., 1])).sum(axis=-1)
        for snr_db in (-31.0, -29.0, -27.0, -25.0, -24.0):
            rho = 10 ** (snr_db / 10)
            exact = q_exact(np.sqrt(rho / 2) * v).mean()
            ratio = abep_pb_two_tx(AbepQuery(rho=rho, n=n, nt=2)) / exact
            assert 1.15 <= ratio <= 1.30, (snr_db, ratio)

    def test_monotone_in_snr_and_elements(self):
        for n in (16, 32, 64):
            vals = [abep_pb_two_tx(AbepQuery(rho=r, n=n, nt=2)) for r in np.geomspace(1e-4, 1e-1, 12)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for rho in (1e-3, 1e-2):
            vals = [abep_pb_two_tx(AbepQuery(rho=rho, n=n, nt=2)) for n in (16, 32, 64, 128)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_doubling_elements_gains_more_than_3db(self):
        def snr_at(target, n):
            return 10 * brentq(
                lambda lr: np.log10(abep_pb_two_tx(AbepQuery(rho=10**lr, n=n, nt=2)))
                - np.log10(target),
                -6.0,
                1.0,
            )

        for n in (32, 64):
            shift = snr_at(1e-3, n) - snr_at(1e-3, 2 * n)
            assert shift > 3.0


class TestPskCoefficients:
    def test_values(self):
        assert psk_g(1, 2) == pytest.approx(1.0)
        assert psk_g(1, 4) == pytest.approx(0.5)
        assert psk_g(2, 8) == pytest.approx(0.8535533905932737)

    def test_range_check(self):
        with pytest.raises(IndexError):
            psk_g(2, 4)
        with pytest.raises(IndexError):
            psk_g(0, 8)


class TestAstbcPep:
    def test_blind_guessing_limit(self):
        assert pep_astbc(AbepQuery(rho=1e-18, n=2)) == pytest.approx(0.5, rel=1e-6)

    def test_frozen_value_and_quadrature(self):
        q = AbepQuery(rho=1.0, n=2)
        p = 0.5 * (1 - np.sqrt(0.5))
        assert p == pytest.approx(0.14644660940672624)
        assert pep_astbc(q) == pytest.approx(0.05805826175840778, rel=1e-12)

        def integrand(x):
            return q_exact(np.sqrt(q.rho * x / 2)) * PAIR_DISTANCE_PDF.pdf(x, q.n)

        oracle, _ = quad(integrand, 0, np.inf, limit=400)
        assert pep_astbc(q) == pytest.approx(oracle, rel=1e-8)

    def test_asymptote_within_10pct_at_rho_n_100(self):
        got = pep_astbc(AbepQuery(rho=100.0 / 64, n=64))
        asym = 0.75 * 100.0**-2
        assert asym == pytest.approx(7.5e-5)
        assert abs(got - asym) / asym < 0.10


class TestSourceAbep:
    def test_low_snr_clamps_to_half(self):
        q = AbepQuery(rho=1e-18, n=2, nt=2, m=2)
        assert union_bound_antenna(q) == pytest.approx(2.0, rel=1e-6)
        assert abep_source(q) == 0.5

    def test_matches_asymptote_at_rho_n_100(self):
        q = AbepQuery(rho=100.0 / 32, n=32, nt=2, m=2)
        assert abep_source_asymptotic(q) == pytest.approx(3e-4)
        assert abep_source(q) == pytest.approx(3e-4, rel=0.1)

    def test_depends_only_on_rho_n_product(self):
        a = abep_source(AbepQuery(rho=0.5, n=64, nt=4, m=4))
        b = abep_source(AbepQuery(rho=1.0, n=32, nt=4, m=4))
        assert a == pytest.approx(b, rel=1e-14)
        # doubling N == doubling rho == exactly 3.0103 dB shift
        a = abep_ris(AbepQuery(rho=0.25, n=128, nt=2, m=2))
        b = abep_ris(AbepQuery(rho=0.5, n=64, nt=2, m=2))
        assert a == pytest.approx(b, rel=1e-14)


class TestRisAbep:
    def test_bpsk_single_term(self):
        # M=2: max(M/4, 1) = 1 term with unit coefficient
        q = AbepQuery(rho=0.3, n=32, nt=2, m=2)
        kernel = pep_astbc(AbepQuery(rho=0.3 * psk_g(1, 2), n=32))
        assert psk_demod_abep(q) == pytest.approx(kernel)

    def test_asymptote_value_at_rho_n_100(self):
        q = AbepQuery(rho=100.0 / 64, n=64, nt=2, m=2)
        pa_asym = 1.5 / 2.0 * 100.0**-2
        assert pa_asym == pytest.approx(7.5e-5)
        pe_asym = 0.75 * 4 * 1 * 100.0**-2
        assert abep_ris_asymptotic(q) == pytest.approx(0.5 * pe_asym + pa_asym)
        assert abep_ris(q) == pytest.approx(abep_ris_asymptotic(q), rel=0.1)

    def test_ris_abep_at_least_psk_term(self):
        for rho, n in ((0.05, 32), (0.5, 64), (2.0, 128)):
            q = AbepQuery(rho=rho, n=n, nt=2, m=2)
            assert abep_ris(q) >= (1 - union_bound_antenna(q)) * psk_demod_abep(q)
            assert abep_ris(q) >= min(psk_demod_abep(q), 0.5) * (1 - union_bound_antenna(q))

    def test_clamped_to_half(self):
        q = AbepQuery(rho=1e-18, n=2, nt=4, m=4)
        assert abep_ris(q) == 0.5
        assert union_bound_antenna(q) > 1  # the raw bound is no probability


class TestAsymptotics:
    def test_exact_inverse_square_scaling(self):
        q1 = AbepQuery(rho=1.0, n=64, nt=2, m=2)
        q10 = AbepQuery(rho=10.0, n=64, nt=2, m=2)
        assert abep_source_asymptotic(q1) / abep_source_asymptotic(q10) == pytest.approx(100.0)
        assert abep_ris_asymptotic(q1) / abep_ris_asymptotic(q10) == pytest.approx(100.0)

    def test_ratio_to_exact_approaches_one(self):
        ratios = []
        for rn in (1e2, 1e3, 1e4, 1e5):
            q = AbepQuery(rho=rn / 64, n=64, nt=2, m=2)
            ratios.append(abep_source_asymptotic(q) / abep_source(q))
        assert all(abs(r - 1) >= abs(r2 - 1) for r, r2 in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1) < 1e-3


class TestExtremeSnr:
    @pytest.mark.parametrize("scheme, m", [("pb", None), ("astbc-optimal", 2)])
    @pytest.mark.parametrize("n", [8, 10**12])
    def test_closed_forms_stay_finite(self, scheme, m, n):
        # 3000 dB: the pole term or the exponent overflows for large n, and
        # the closed forms return their limit instead of nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = [v for v in analytic_abep(scheme, 1e300, n, 2, m) if v is not None]
        assert values and all(0.0 <= v <= 0.5 for v in values)


class TestAbepQueryValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AbepQuery(rho=0.0, n=8)
        with pytest.raises(ValueError):
            AbepQuery(rho=1.0, n=0)
        with pytest.raises(ValueError):
            AbepQuery(rho=1.0, n=8, nt=3)
        with pytest.raises(ValueError):
            AbepQuery(rho=1.0, n=8, m=6)

    @pytest.mark.parametrize(
        "kw",
        [dict(rho=np.nan), dict(rho=np.inf), dict(rho=-1.0), dict(nt=1),
         dict(n=2.5), dict(n=True), dict(nt=2.0), dict(nt=True), dict(m=2.0), dict(m=False)],
        ids=["nan", "inf", "negative", "nt1", "n-float", "n-bool", "nt-float", "nt-bool", "m-float", "m-bool"],
    )
    def test_rejects_points_without_a_closed_form(self, kw):
        # a NaN or inf rho would give NaN ABEPs, nt=1 a division by zero in
        # abep_source, and a fractional or bool count numbers for no surface
        with pytest.raises(ValueError):
            AbepQuery(**{"rho": 1.0, "n": 8, **kw})

    def test_accepts_numpy_integers(self):
        # held as ints, so they give the plain ints' numbers bit for bit
        q = AbepQuery(rho=1.0, n=np.int64(8), nt=np.int32(2), m=np.uint8(4))
        assert q == AbepQuery(rho=1.0, n=8, nt=2, m=4)
        assert all(type(v) is int for v in (q.n, q.nt, q.m))
        assert abep_ris(q) == abep_ris(AbepQuery(rho=1.0, n=8, nt=2, m=4))

    def test_chi_square_pdfs_normalized(self):
        for params, n in ((PAIR_DISTANCE_PDF, 32), (COMBINED_GAIN_PDF, 64)):
            total, _ = quad(lambda x: params.pdf(x, n), 0, np.inf, limit=200)
            assert total == pytest.approx(1.0, rel=1e-9)
