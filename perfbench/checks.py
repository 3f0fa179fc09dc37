"""Statistics and correctness checks used by the benchmark."""

from __future__ import annotations

import math

from ris_ssk.harness import BerRecord, SimConfig, binomial_confidence

# Tail percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def highest_supported_percentile(n: int) -> float | None:
    """Highest of PERCENTILES with at least ten of ``n`` samples above it."""
    best = None
    for q in PERCENTILES:
        if math.floor(n * (1.0 - q / 100.0) + 1e-9) >= 10:
            best = q
    return best


def wilson_band_ok(errors: int, bits: int, analytic: float, one_sided: bool = False) -> bool:
    """Does the 3-sigma Wilson interval of errors/bits meet [0.7, 1.3] x analytic?

    ``one_sided`` asks only that the interval reach 0.7 x analytic, i.e.
    that the measured rate is not clearly below the closed form.
    """
    lo, hi = binomial_confidence(errors, bits, z=3.0)
    if hi < 0.7 * analytic:
        return False
    return one_sided or lo <= 1.3 * analytic


def bits_per_trial(cfg: SimConfig) -> tuple[int, int]:
    """(source, surface) bits carried by one trial."""
    src = int(math.log2(cfg.nt))
    ris = 2 * int(math.log2(cfg.m)) if cfg.scheme.startswith("astbc") else 0
    return src, ris


def record_problems(cfg: SimConfig, records: list[BerRecord]) -> list[str]:
    """Ways in which one operation's records contradict its configuration."""
    if len(records) != 1:
        return [f"expected 1 record, got {len(records)}"]
    r = records[0]
    out = []
    if (r.scheme, r.n, r.nt, r.snr_db, r.seed) != (cfg.scheme, cfg.n, cfg.nt, cfg.snr_db_grid[0], cfg.seed):
        out.append("record does not echo its configuration")
    if r.trials != cfg.trials:
        out.append(f"ran {r.trials} trials of a {cfg.trials} budget")
    b_src, b_ris = bits_per_trial(cfg)
    if not 0 <= r.source_errors <= r.trials * b_src:
        out.append(f"source errors {r.source_errors} out of range")
    elif r.trials and not math.isclose(r.ber_source, r.source_errors / (r.trials * b_src)):
        out.append("ber_source does not match its counts")
    if b_ris:
        if r.ris_errors is None or not 0 <= r.ris_errors <= r.trials * b_ris:
            out.append(f"surface errors {r.ris_errors} out of range")
    elif r.ris_errors is not None:
        out.append("surface errors reported for an uncoded scheme")
    return out


def band_checks(cfg: SimConfig) -> list[tuple[str, bool]]:
    """Which closed forms the 30% Wilson band applies to, as (stream, one_sided).

    The closed forms model the two-antenna beamformed link and the ML
    detector of the coded link.  ``astbc-fast`` records carry the ML closed
    form too, which that detector cannot beat; it is checked from below only.
    """
    if cfg.scheme == "pb" and cfg.n == 64:
        return [("source", False)]
    if cfg.scheme == "astbc-optimal":
        return [("source", False), ("ris", False)]
    if cfg.scheme == "astbc-fast":
        return [("source", True), ("ris", True)]
    return []
