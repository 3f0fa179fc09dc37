"""The benchmark's workloads: which sweeps each one runs, made from a seed.

An operation is one ``run_ber_sweep`` call for one (scheme, SNR point).  A
workload is a fixed list of operations (one *round*); a run repeats rounds in
a closed loop with one caller.  Every round gets fresh sweep seeds drawn from
the benchmark seed, so the program never sees the same input twice and the
same benchmark seed always gives the same inputs.

Operation-time percentiles are taken over operations of different schemes.
No workload splits its operations half and half between two schemes, so its
median cannot fall on the gap between two groups of operation times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ris_ssk.harness import SimConfig


@dataclass(frozen=True)
class OpSpec:
    """One operation: a scheme at one SNR point with its trial budget."""

    scheme: str
    n: int
    nt: int
    m: int | None
    snr_db: float
    trials: int


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[OpSpec, ...]

    def configs(self, seed: int, round_index: int) -> list[SimConfig]:
        """The sweep configurations of one round."""
        seeds = np.random.SeedSequence([seed, round_index]).generate_state(len(self.ops))
        return [
            SimConfig(
                scheme=op.scheme,
                n=op.n,
                nt=op.nt,
                m=op.m,
                snr_db_grid=(op.snr_db,),
                trials=op.trials,
                seed=int(s),
            )
            for op, s in zip(self.ops, seeds)
        ]


def _grid(scheme, n, nt, m, snrs, trials) -> tuple[OpSpec, ...]:
    return tuple(OpSpec(scheme, n, nt, m, float(s), trials) for s in snrs)


# Criterion 1's N=64 grid and criterion 2's grid.
_PB_GRID = range(-31, -23)
_ASTBC_GRID = range(-12, 0, 2)

WORKLOADS = {
    w.name: w
    for w in (
        # Per-trial harness loop down the beamformed branch: stream keying,
        # channel draw, closed-form beamformer, transmit, ML detection.
        Workload(
            "pb-sweep",
            _grid("pb", 64, 2, None, _PB_GRID, 2000)
            + _grid("intelligent-ris-ssk", 64, 2, None, _PB_GRID, 2000)
            + _grid("traditional-ssk", 64, 2, None, range(0, 24, 3), 2800),
        ),
        # The same loop down the coded branch and its two detectors.
        # astbc-fast runs on every other point, so the two schemes are not
        # half and half and the median lies inside one of them.
        Workload(
            "astbc-sweep",
            _grid("astbc-optimal", 64, 2, 2, _ASTBC_GRID, 1400)
            + _grid("astbc-fast", 64, 4, 4, _ASTBC_GRID[1::2], 1300),
        ),
        # Dominated by the relaxation beamformer (~70% of the traced time).
        # pb-sdr gets two single-trial operations per point, so that its
        # operations are two thirds of the total and the median lies inside
        # that group rather than between the two schemes.
        Workload(
            "sdr-sweep",
            _grid("pb-sdr", 16, 4, None, (-20, -15, -10) * 2, 1)
            + _grid("pb-lowcomplexity", 16, 4, None, (-20, -15, -10), 800),
        ),
    )
}

# sdr_dmin_ratio: channels of the sdr-sweep shape, drawn from the seed.
RATIO_CHANNELS = 50
RATIO_N, RATIO_NT = 16, 4


def get(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
