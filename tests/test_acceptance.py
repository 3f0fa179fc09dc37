"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line (run pytest with -s
to see them).  Monte Carlo grids are placed where the closed forms are in
scope, with per-point trial counts chosen so binomial noise stays well
inside the stated tolerances; deep-BER points get more than the 1e5-trial
floor.  Criteria 6-10 are the harness validation checks, the same code that
``ris-ssk validate`` runs.
"""

import math
import time

import pytest
from scipy.optimize import brentq

from ris_ssk import analysis, harness
from ris_ssk.harness import (
    BerRecord,
    CheckResult,
    SimConfig,
    estimate_diversity_slope,
    run_ber_sweep,
    write_csv,
)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _sweep(scheme, n, nt, m, points, seed) -> list[BerRecord]:
    """Run one sweep with per-point trial counts (grouped into configs)."""
    records = []
    group: list[tuple[float, int]] = []

    def flush():
        nonlocal group
        if not group:
            return
        cfg = SimConfig(
            scheme=scheme,
            n=n,
            nt=nt,
            m=m,
            snr_db_grid=tuple(s for s, _ in group),
            trials=group[0][1],
            seed=seed,
        )
        records.extend(run_ber_sweep(cfg))
        group = []

    for snr, trials in points:
        if group and trials != group[0][1]:
            flush()
        group.append((snr, trials))
    flush()
    return records


@pytest.fixture(scope="module")
def pb_sweeps():
    t0 = time.perf_counter()
    points32 = [(-25.0, 10**5), (-23.0, 10**5), (-21.0, 10**5), (-19.0, 4 * 10**5), (-18.0, 10**6)]
    points64 = [(-31.0, 10**5), (-29.0, 10**5), (-27.0, 10**5), (-25.0, 4 * 10**5), (-24.0, 10**6)]
    out = {
        32: _sweep("pb", 32, 2, None, points32, seed=11),
        64: _sweep("pb", 64, 2, None, points64, seed=12),
    }
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def astbc_sweep():
    points = [(-12.0, 2 * 10**5), (-10.0, 2 * 10**5), (-8.0, 2 * 10**5),
              (-6.0, 2 * 10**5), (-4.0, 6 * 10**5), (-2.0, 6 * 10**5)]
    return _sweep("astbc-optimal", 64, 2, 2, points, seed=21)


def test_criterion_1_pb_analytic_simulation_agreement(pb_sweeps):
    worst = 0.0
    checked = 0
    for n in (32, 64):
        for r in pb_sweeps[n]:
            assert r.trials >= 10**5
            if not 1e-3 <= r.analytic_source <= 1e-1:
                continue
            checked += 1
            dev = abs(r.ber_source / r.analytic_source - 1.0)
            worst = max(worst, dev)
    ok = checked >= 8 and worst <= 0.30 and pb_sweeps["elapsed"] < 300
    _report(
        1,
        ok,
        f"{checked} points with analytic ABEP in [1e-3, 1e-1]; worst simulated "
        f"deviation {worst * 100:.1f}% (limit 30%); runtime {pb_sweeps['elapsed']:.0f}s < 300s",
    )


def test_pb_simulation_matches_the_clt_with_exact_q(pb_sweeps):
    # Criterion 10's pb integrand with the exact Gaussian tail: the CLT step
    # alone, without Chiani's approximation.  Read as simulated/CLT it gave
    # 0.948-1.010 on these draws.  Not at N=32: at -18 dB (1e6 trials) it
    # read 0.912, outside the interval; the CLT's error grows at smaller N.
    from scipy.integrate import quad

    params = analysis.GaussianApproxParams.from_elements(64)
    mu, var = params.mu_v, params.sigma_v2
    for r in pb_sweeps[64]:
        rho = 10 ** (r.snr_db / 10)

        def integrand(v):
            return analysis.q_exact(math.sqrt(rho / 2) * abs(v)) * math.exp(-((v - mu) ** 2) / (2 * var))

        clt = quad(integrand, mu - 12 * math.sqrt(var), mu + 12 * math.sqrt(var), limit=400)[0]
        clt /= math.sqrt(2 * math.pi * var)
        lo, hi = harness.binomial_confidence(r.source_errors, r.trials)  # one bit per trial at Nt=2
        assert lo <= clt <= hi, (r.snr_db, r.ber_source / clt, (lo, hi))


def test_criterion_2_astbc_analytic_simulation_agreement(astbc_sweep):
    worst_src = worst_ris = 0.0
    n_src = n_ris = 0
    for r in astbc_sweep:
        assert r.trials >= 10**5
        if 1e-3 <= r.analytic_source <= 1e-1:
            n_src += 1
            worst_src = max(worst_src, abs(r.ber_source / r.analytic_source - 1.0))
        if 1e-3 <= r.analytic_ris <= 1e-1:
            n_ris += 1
            worst_ris = max(worst_ris, abs(r.ber_ris / r.analytic_ris - 1.0))
    ok = n_src >= 5 and n_ris >= 5 and worst_src <= 0.30 and worst_ris <= 0.30
    _report(
        2,
        ok,
        f"source: worst {worst_src * 100:.1f}% over {n_src} points; "
        f"surface: worst {worst_ris * 100:.1f}% over {n_ris} points (limit 30%)",
    )


def test_criterion_3_diversity_order_two(astbc_sweep):
    qualifying = [r for r in astbc_sweep if 0.0 < r.ber_source < 0.1]
    top_two = sorted(qualifying, key=lambda r: r.snr_db)[-2:]
    sim_slope = estimate_diversity_slope(top_two)
    asym_records = []
    for rho_n in (1e3, 3.16e3, 1e4):
        q = analysis.AbepQuery(rho=rho_n / 64, n=64, nt=2, m=2)
        v = analysis.abep_source_asymptotic(q)
        asym_records.append(
            BerRecord("astbc-optimal", 64, 2, 2, 10 * math.log10(q.rho), 1, 0, None,
                      v, None, v, None, 0, None)
        )
    asym_slope = estimate_diversity_slope(asym_records)
    ok = -2.4 <= sim_slope <= -1.6 and abs(asym_slope + 2.0) <= 0.05
    _report(
        3,
        ok,
        f"simulated slope {sim_slope:.2f} between {top_two[0].snr_db:g} and "
        f"{top_two[1].snr_db:g} dB (need [-2.4, -1.6]); analytic asymptote "
        f"slope {asym_slope:.3f} (need -2.00 +- 0.05)",
    )


def test_criterion_4_snr_gain_per_element_doubling():
    def astbc_snr_at(target, n):
        return 10 * brentq(
            lambda lr: math.log10(
                analysis.abep_source(analysis.AbepQuery(rho=10**lr, n=n, nt=2, m=2))
            )
            - math.log10(target),
            -3.0,
            3.0,
        )

    def pb_snr_at(target, n):
        return 10 * brentq(
            lambda lr: math.log10(
                analysis.abep_pb_two_tx(analysis.AbepQuery(rho=10**lr, n=n, nt=2))
            )
            - math.log10(target),
            -6.0,
            1.0,
        )

    astbc_shift = astbc_snr_at(1e-3, 64) - astbc_snr_at(1e-3, 128)
    pb_shift = pb_snr_at(1e-3, 64) - pb_snr_at(1e-3, 128)
    ok = abs(astbc_shift - 3.0) <= 0.2 and pb_shift > 3.0
    _report(
        4,
        ok,
        f"coded-scheme shift {astbc_shift:.3f} dB (need 3.0 +- 0.2); "
        f"beamformed shift {pb_shift:.2f} dB (need > 3)",
    )


def test_criterion_5_pb_dominates_intelligent_alignment():
    grids = {8: [-14.0, -12.0, -10.0, -8.0, -6.0], 32: [-25.0, -23.0, -21.0, -19.0]}
    trials = 10**5
    failures = []
    compared = 0
    for n, grid in grids.items():
        pb = run_ber_sweep(
            SimConfig(scheme="pb", n=n, nt=2, snr_db_grid=tuple(grid), trials=trials, seed=51)
        )
        intel = run_ber_sweep(
            SimConfig(
                scheme="intelligent-ris-ssk", n=n, nt=2, snr_db_grid=tuple(grid),
                trials=trials, seed=51,
            )
        )
        for a, b in zip(pb, intel):
            if a.ber_source <= 1e-3 or b.ber_source <= 1e-3:
                continue
            compared += 1
            sigma = math.sqrt(
                a.ber_source * (1 - a.ber_source) / trials
                + b.ber_source * (1 - b.ber_source) / trials
            )
            if not a.ber_source <= b.ber_source - 3 * sigma:
                failures.append((n, a.snr_db))
    ok = compared >= 8 and not failures
    _report(
        5,
        ok,
        f"beamformed BER below alignment baseline by >= 3 sigma at "
        f"{compared - len(failures)}/{compared} points with both BER > 1e-3"
        + (f"; failed at {failures}" if failures else ""),
    )


def _report_checks(num: int, checks: list[CheckResult]) -> None:
    """Report shared validation checks as criterion ``num``."""
    # plain bools, not numpy.bool
    assert [type(c.passed) for c in checks] == [bool] * len(checks)
    detail = "; ".join(f"{c.measured} (need {c.requirement})" for c in checks)
    _report(num, all(c.passed for c in checks), detail)


def test_criterion_6_sdr_beamformer_quality():
    t0 = time.perf_counter()
    checks = harness._check_beamformer_vs_grid()
    elapsed = time.perf_counter() - t0
    runtime = CheckResult("runtime", elapsed < 600, f"runtime {elapsed:.0f}s", "< 600s")
    _report_checks(6, checks + [runtime])


def test_criterion_7_two_antenna_optimality():
    _report_checks(7, harness._check_two_antenna())


def test_criterion_8_detector_contracts():
    _report_checks(8, harness._check_detectors())


def test_criterion_9_clt_moments():
    _report_checks(9, harness._check_clt_moments())


def test_criterion_10_closed_forms_match_quadrature():
    _report_checks(10, harness._check_quadrature())


def test_criterion_11_reproducibility_across_workers(tmp_path):
    def run(workers):
        cfg = SimConfig(
            scheme="pb", n=8, nt=2, snr_db_grid=(-14.0, -10.0),
            trials=32_000, seed=9, workers=workers,
        )
        path = tmp_path / f"w{workers}.csv"
        write_csv(run_ber_sweep(cfg), path)
        return path.read_bytes()

    b1, b8 = run(1), run(8)
    again = run(1)
    ok = b1 == b8 and b1 == again
    _report(
        11,
        ok,
        f"CSV bytes identical for 1 vs 8 workers ({len(b1)} bytes) and across reruns",
    )
