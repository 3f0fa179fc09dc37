import csv
import dataclasses
import json
import math
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ris_ssk import analysis, astbc_link, beamform, cli, harness
from ris_ssk.channel import NoiseModel, StreamBank, sample_awgn, sample_channel, substream
from ris_ssk.harness import (
    BerRecord,
    CheckResult,
    ConfigError,
    SimConfig,
    analytic_sweep,
    binomial_confidence,
    estimate_diversity_slope,
    run_ber_sweep,
    write_csv,
    write_json,
)


def _cfg(**kw):
    base = dict(
        scheme="pb",
        n=8,
        nt=2,
        snr_db_grid=(-14.0, -10.0),
        trials=2000,
        seed=3,
    )
    base.update(kw)
    return SimConfig(**base)


def _csv_rows(path) -> list[dict]:
    """A written CSV's rows, each a dict of column name to cell text."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigValidation:
    def test_accepts_valid(self):
        _cfg()

    def test_is_frozen_and_replaceable(self):
        cfg = _cfg()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.trials = 5
        assert dataclasses.replace(cfg, trials=5).trials == 5
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, trials=0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(scheme="nope"),
            dict(n=0),
            dict(nt=3),
            dict(scheme="pb", nt=4),
            dict(scheme="astbc-fast", m=None),
            dict(scheme="astbc-fast", m=3),
            dict(scheme="astbc-fast", n=7, m=2),
            dict(snr_db_grid=()),
            dict(snr_db_grid=(-10.0, -10.0)),
            dict(snr_db_grid=(-10.0, -12.0)),
            dict(trials=0),
            dict(seed=-1),
            dict(seed=2**64 + 5),
            dict(workers=0),
            dict(target_errors=0),
            dict(snr_db_grid=(math.nan,)),
            dict(snr_db_grid=(-math.inf,)),
            dict(snr_db_grid=(-10.0, math.nan)),
            dict(scheme="pb", m=4),
            dict(scheme="pb-sdr", nt=4, m=2),
            dict(scheme="traditional-ssk", m=2),
            dict(scheme="astbc-optimal", m=1),
            # Non-integers: a float seed would alias an integer seed's
            # streams; the others would fail deep in the kernel.
            dict(seed=2.5),
            dict(seed=3.0),
            dict(trials=10.5),
            dict(n=4.0),
            dict(nt=2.0),
            dict(scheme="astbc-fast", m=2.0),
            dict(workers=1.5),
            dict(target_errors=3.5),
            dict(n=True),
            # past +-3000 dB: at -3082.5 dB the detectors' squared
            # distances overflow; past about 3082 dB 10^(s/10) overflows
            dict(snr_db_grid=(3000.5,)),
            dict(snr_db_grid=(-3082.5,)),
            dict(snr_db_grid=(4000.0,)),
            dict(snr_db_grid=(-4000.0,)),
            dict(snr_db_grid=(-10.0, 3500.0)),
            # point 1 would reach trial index 2^48
            dict(trials=2**47 + 1, snr_db_grid=(0.0, 1.0)),
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(ConfigError):
            _cfg(**kw)

    @pytest.mark.parametrize(
        "grid",
        ["05", "", b"05", (True,), (0.0, np.True_), (1j,), ("5",), (None,)],
        ids=["str", "empty-str", "bytes", "bool", "numpy-bool", "complex", "str-entry", "none-entry"],
    )
    def test_rejects_grid_that_is_not_real_numbers(self, grid):
        # "05" used to sweep 0 dB and 5 dB, one per character; True swept 1 dB
        with pytest.raises(ConfigError, match="real numbers"):
            _cfg(snr_db_grid=grid)

    def test_accepts_edges_of_the_snr_and_trial_limits(self):
        _cfg(snr_db_grid=(-3000.0, 3000.0, math.inf))
        _cfg(trials=2**47, snr_db_grid=(0.0, 1.0))

    def test_accepts_numpy_grid(self):
        cfg = _cfg(snr_db_grid=np.array([-14, -10.5]))
        assert cfg.snr_db_grid == (-14.0, -10.5)
        assert all(type(s) is float for s in cfg.snr_db_grid)

    def test_numpy_integer_fields_write_same_bytes(self, tmp_path):
        kw = dict(scheme="astbc-fast", n=8, nt=4, m=4, trials=60, seed=3, workers=1, target_errors=500)
        plain = SimConfig(snr_db_grid=(-6.0, 0.0), **kw)
        numpy_ints = SimConfig(
            snr_db_grid=(-6.0, 0.0), **{k: v if k == "scheme" else np.int64(v) for k, v in kw.items()}
        )
        assert all(type(getattr(numpy_ints, k)) is int for k in kw if k != "scheme")
        for name, cfg in (("plain", plain), ("numpy", numpy_ints)):
            records = run_ber_sweep(cfg)
            write_json(records, tmp_path / f"{name}.json")
            write_csv(records, tmp_path / f"{name}.csv")
        for suffix in (".json", ".csv"):
            assert (tmp_path / f"plain{suffix}").read_bytes() == (tmp_path / f"numpy{suffix}").read_bytes()

    def test_analytic_sweep_takes_numpy_integers(self, tmp_path):
        records = analytic_sweep("astbc-fast", np.int64(8), np.int32(2), np.int64(4), (0.0,))
        write_json(records, tmp_path / "a.json")
        assert json.loads((tmp_path / "a.json").read_text())[0]["n"] == 8


class TestSweep:
    def test_pb_sweep_record_contents(self):
        records = run_ber_sweep(_cfg())
        assert len(records) == 2
        for r, snr in zip(records, (-14.0, -10.0)):
            assert r.scheme == "pb" and r.snr_db == snr and r.trials == 2000
            assert r.ber_source == r.source_errors / 2000
            assert r.ris_errors is None and r.ber_ris is None and r.m is None
            # analytic column reproducible from the analysis module
            want = analysis.abep_pb_two_tx(
                analysis.AbepQuery(rho=10 ** (snr / 10), n=8, nt=2)
            )
            assert r.analytic_source == pytest.approx(want, rel=1e-14)
            assert r.wall_time_s is None

    def test_astbc_noiseless_zero_errors(self):
        cfg = _cfg(
            scheme="astbc-fast",
            n=16,
            m=2,
            snr_db_grid=(math.inf,),
            trials=500,
        )
        (r,) = run_ber_sweep(cfg)
        assert r.source_errors == 0 and r.ris_errors == 0
        assert r.ber_source == 0.0 and r.ber_ris == 0.0
        assert r.analytic_source is None and r.analytic_ris is None

    def test_astbc_counts_both_bit_streams(self):
        cfg = _cfg(scheme="astbc-optimal", n=8, m=4, snr_db_grid=(-6.0,), trials=3000)
        (r,) = run_ber_sweep(cfg)
        assert r.m == 4
        assert r.ber_source == r.source_errors / 3000
        assert r.ber_ris == r.ris_errors / (3000 * 4)  # 2*log2(4) bits per frame
        q = analysis.AbepQuery(rho=10 ** (-0.6), n=8, nt=2, m=4)
        assert r.analytic_source == pytest.approx(analysis.abep_source(q), rel=1e-14)
        assert r.analytic_ris == pytest.approx(analysis.abep_ris(q), rel=1e-14)

    def test_deterministic_identical_csv_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_ber_sweep(_cfg()), p1)
        write_csv(run_ber_sweep(_cfg()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        p1, p8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
        write_csv(run_ber_sweep(_cfg(trials=4000, workers=1)), p1)
        write_csv(run_ber_sweep(_cfg(trials=4000, workers=3)), p8)
        assert p1.read_bytes() == p8.read_bytes()

    def test_pool_bounded_by_cpus_and_split_by_workers(self, monkeypatch):
        import multiprocessing
        import os

        asked, parts = [], []

        class FakePool:
            """Runs each part in this process; starts no process."""

            def __init__(self, processes):
                asked.append(processes)

            def starmap(self, fn, args):
                parts.append(len(args))
                return [fn(*a) for a in args]

            def close(self):
                pass

            def join(self):
                pass

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        cfg = _cfg(snr_db_grid=(-10.0,), trials=20_000)
        many = run_ber_sweep(dataclasses.replace(cfg, workers=10_000))
        assert len(asked) == 1 and 1 <= asked[0] <= os.cpu_count()
        assert parts == [10_000]
        assert many == run_ber_sweep(cfg)

    def test_pb_sdr_worker_count_invariance(self, tmp_path):
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        cfg = dict(scheme="pb-sdr", n=4, nt=4, snr_db_grid=(-4.0, 0.0), trials=12)
        write_csv(run_ber_sweep(_cfg(**cfg, workers=1)), p1)
        write_csv(run_ber_sweep(_cfg(**cfg, workers=2)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trial_count_stability(self):
        # doubling trials moves the estimate by less than 3 binomial sigmas
        r1 = run_ber_sweep(_cfg(snr_db_grid=(-14.0,), trials=20_000))[0]
        r2 = run_ber_sweep(_cfg(snr_db_grid=(-14.0,), trials=40_000))[0]
        sigma = math.sqrt(r1.ber_source * (1 - r1.ber_source) / 20_000)
        assert abs(r1.ber_source - r2.ber_source) < 3 * sigma

    def test_early_stop_records_actual_trials(self):
        cfg = _cfg(snr_db_grid=(-6.0,), trials=200_000, target_errors=50)
        (r,) = run_ber_sweep(cfg)
        assert r.trials < 200_000
        assert r.source_errors >= 50
        assert r.trials % 10_000 == 0  # fixed bookkeeping interval
        # worker split must not change the early-stopped result
        (r2,) = run_ber_sweep(
            _cfg(snr_db_grid=(-6.0,), trials=200_000, target_errors=50, workers=2)
        )
        assert (r2.trials, r2.source_errors) == (r.trials, r.source_errors)

    def test_intelligent_and_traditional_have_no_analytic_columns(self):
        for scheme in ("intelligent-ris-ssk", "traditional-ssk"):
            (r,) = run_ber_sweep(_cfg(scheme=scheme, snr_db_grid=(-8.0,), trials=1500))
            assert r.analytic_source is None and r.analytic_ris is None

    def test_wall_time_recorded_when_enabled(self):
        (r,) = run_ber_sweep(_cfg(snr_db_grid=(-10.0,), trials=500, record_wall_time=True))
        assert r.wall_time_s is not None and r.wall_time_s > 0


def _detector(cfg):
    return astbc_link.detect_fast if cfg.scheme == "astbc-fast" else astbc_link.detect_ml


def _scalar_decisions(cfg, snr_db, start, count, channel):
    """Per-trial (sent, detected) 0-based indices of one-trial draws (the
    channel on the ``channel`` purpose's stream), slots from the code
    matrix, and one-trial detector calls."""
    ch_bank, data_bank = StreamBank(cfg.seed, channel), StreamBank(cfg.seed, "data")
    noise = NoiseModel.from_snr_db(snr_db)
    alphas = astbc_link.psk_phases(cfg.m)
    out = []
    for k in range(start, start + count):
        ch = sample_channel(cfg.n, cfg.nt, ch_bank.trial(k))
        rng = data_bank.trial(k)
        l, k1, k2 = sent = tuple(int(v) for v in rng.integers(0, [cfg.nt, cfg.m, cfg.m]))
        h1, h2 = astbc_link.sub_surface_sums(ch.G, ch.f)
        y1, y2 = astbc_link.code_matrix(alphas[k1], alphas[k2]) @ np.array([h1[l], h2[l]])
        y1, y2 = y1 + sample_awgn(noise, rng), y2 + sample_awgn(noise, rng)
        out.append((sent, tuple(int(v) for v in _detector(cfg)(y1, y2, h1, h2, cfg.m))))
    return out


def _kernel_decisions(cfg, snr_db, start, count, channel):
    """The same decisions from the chunked frame builder."""
    noise = NoiseModel.from_snr_db(snr_db)
    return [
        (tuple(int(v) for v in s), tuple(int(v) for v in d))
        for sent, *frame in harness._coded_frame_chunks(cfg, channel, noise, start, count)
        for s, d in zip(sent, np.stack(_detector(cfg)(*frame, cfg.m), axis=-1))
    ]


class TestCodedKernel:
    @pytest.mark.parametrize("scheme", ["astbc-optimal", "astbc-fast"])
    @pytest.mark.parametrize("nt, m", [(2, 2), (4, 4), (2, 8), (8, 2)])
    @pytest.mark.parametrize("snr_db", [-2.0, math.inf])
    def test_decisions_equal_one_trial_api(self, scheme, nt, m, snr_db):
        # sweeps draw the channel from the channel stream, criterion 8 from
        # the oracle stream
        cfg = _cfg(scheme=scheme, n=8, nt=nt, m=m, seed=61)
        for channel in ("channel", "oracle"):
            want = _scalar_decisions(cfg, snr_db, 1000, 300, channel)
            assert _kernel_decisions(cfg, snr_db, 1000, 300, channel) == want
            if snr_db == math.inf:
                assert all(s == d for s, d in want)
            else:
                assert any(s != d for s, d in want)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(scheme="astbc-optimal", nt=4, m=4),
            dict(scheme="astbc-fast", nt=4, m=4),
            dict(scheme="pb", nt=2),
            dict(scheme="pb-lowcomplexity", nt=8),
            dict(scheme="intelligent-ris-ssk", nt=4),
            dict(scheme="traditional-ssk", nt=4),
        ],
    )
    def test_counts_do_not_depend_on_chunk_size(self, kw, monkeypatch):
        cfg = _cfg(n=16, seed=62, **kw)
        per_trial = harness._trial_elements(cfg)
        counts = []
        for trials in (1, 7, harness._CHUNK_ELEMENTS // per_trial):
            monkeypatch.setattr(harness, "_CHUNK_ELEMENTS", trials * per_trial)
            noise = NoiseModel.from_snr_db(-4.0)
            sizes = [len(s) for s, _ in harness._chunks(cfg, noise, 5, 300)]
            assert sizes[:-1] == [min(trials, 300)] * (len(sizes) - 1) and sum(sizes) == 300
            counts.append(harness._count_trials(cfg, -4.0, 5, 300))
        assert counts[0] == counts[1] == counts[2]

    @pytest.mark.parametrize(
        "kw, want",
        [
            (dict(scheme="astbc-optimal", n=16, nt=4, m=4, snr_db_grid=(-6.0, -2.0), seed=31),
             [(979, 1804), (495, 812)]),
            (dict(scheme="astbc-fast", n=16, nt=4, m=8, snr_db_grid=(-4.0, 0.0), seed=32),
             [(1005, 3137), (518, 1674)]),
            (dict(scheme="pb", n=16, snr_db_grid=(-16.0, -12.0), seed=41), [(55, None), (5, None)]),
            (dict(scheme="pb-lowcomplexity", nt=4, snr_db_grid=(-8.0, -4.0), seed=42), [(578, None), (230, None)]),
            (dict(scheme="pb-sdr", n=4, nt=4, snr_db_grid=(-4.0, 0.0), trials=15, seed=43), [(8, None), (1, None)]),
            (dict(scheme="intelligent-ris-ssk", nt=4, snr_db_grid=(-10.0, -6.0), seed=44), [(468, None), (195, None)]),
            (dict(scheme="traditional-ssk", nt=4, snr_db_grid=(0.0, 5.0), seed=45), [(1151, None), (730, None)]),
            (dict(scheme="pb-lowcomplexity", nt=8, snr_db_grid=(-4.0, 0.0), seed=46), [(1030, None), (427, None)]),
            (dict(scheme="intelligent-ris-ssk", nt=8, snr_db_grid=(-6.0, -2.0), seed=47), [(430, None), (183, None)]),
            (dict(scheme="traditional-ssk", nt=8, snr_db_grid=(5.0, 10.0), seed=48), [(1510, None), (753, None)]),
            (dict(scheme="pb", n=64, snr_db_grid=(-28.0,), trials=5000, seed=50), [(121, None)]),
        ],
    )
    def test_golden_error_counts(self, kw, want):
        # The coded counts were recorded from the per-trial loop that preceded
        # the chunked kernel, the pb-branch counts from the per-trial loop that
        # preceded the beamformed kernel (the first seven while that loop still
        # shifted its antenna indices to 1-based and back).  Two were recorded
        # again since: astbc-fast when its antenna metric became the exact ML
        # cost (its counts equal astbc-optimal's on the same config), and
        # pb-sdr when the relaxation's ascent schedules were shortened and
        # again when its polish became a race.  The
        # traditional-ssk counts were recorded again when its channel stream
        # came to hold only the 2·Nt direct-link normals, after they matched
        # the scalar reference of TestPbKernel on the same draws and a
        # workers=2 run.  The N=64 pb point spans forty chunks.
        records = run_ber_sweep(_cfg(**{"trials": 2000, **kw}))
        assert [(r.source_errors, r.ris_errors) for r in records] == want

    def test_golden_early_stop(self):
        # Three stop-check intervals, two workers.  Recorded again when the
        # traditional-ssk channel stream came to hold only the direct links,
        # after it matched the scalar reference and a workers=1 run.
        cfg = _cfg(scheme="traditional-ssk", nt=4, snr_db_grid=(-3.0,), trials=100_000,
                   target_errors=20_000, seed=51, workers=2)
        (r,) = run_ber_sweep(cfg)
        assert (r.trials, r.source_errors) == (30_000, 20_467)

    def test_golden_coded_early_stop_waits_for_both_streams(self):
        # The first stop-check interval ends with 3196 source and 1942 surface
        # errors: the source stream alone would stop here, at 10 000 trials.
        cfg = _cfg(scheme="astbc-optimal", n=8, nt=8, m=2, snr_db_grid=(0.0,), trials=50_000,
                   target_errors=3000, seed=5)
        assert harness._count_trials(cfg, 0.0, 0, 10_000) == (3196, 1942)
        (r,) = run_ber_sweep(cfg)
        assert (r.trials, r.source_errors, r.ris_errors) == (20_000, 6231, 3792)

    def test_chunk_budget_bounds_memory(self):
        for cfg in (
            _cfg(scheme="astbc-optimal", n=64, nt=8, m=32, snr_db_grid=(0.0,), trials=2000),
            _cfg(scheme="pb-lowcomplexity", n=64, nt=8, snr_db_grid=(0.0,), trials=1000),
            _cfg(scheme="intelligent-ris-ssk", n=64, nt=8, snr_db_grid=(0.0,), trials=2000),
            # several full chunks of the (chunk, 2·Nt) direct-link draws
            _cfg(scheme="traditional-ssk", n=64, nt=8, snr_db_grid=(0.0,), trials=10_000),
        ):
            tracemalloc.start()
            try:
                run_ber_sweep(cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, cfg.scheme

    @pytest.mark.parametrize("scheme", ["pb", "intelligent-ris-ssk"])
    def test_surface_chunks_count_live_temporaries(self, scheme):
        # a chunk held 512 trials (3.7 and 5.0 MB traced) while only G counted
        cfg = _cfg(scheme=scheme, n=64, snr_db_grid=(0.0,), trials=2000)
        run_ber_sweep(_cfg(scheme=scheme, n=64, snr_db_grid=(0.0,), trials=1))  # lazy imports
        tracemalloc.start()
        try:
            run_ber_sweep(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize(
        "kw, want",
        [
            (dict(scheme="astbc-optimal", n=64, nt=2, m=2), 170),
            (dict(scheme="astbc-fast", n=64, nt=4, m=4), 102),
            (dict(scheme="pb-lowcomplexity", n=16, nt=4), 170),
            (dict(scheme="pb", n=64, nt=2), 128),
            (dict(scheme="intelligent-ris-ssk", n=64, nt=2), 128),
        ],
    )
    def test_chunk_sizes(self, kw, want):
        # the coded and candidate-set chunks lose time per trial when smaller
        # (a blanket 2^14-element cap cost astbc-sweep about 10% of its trials/s)
        cfg = _cfg(**kw)
        sizes = [len(s) for s, _ in harness._chunks(cfg, NoiseModel(0.0), 0, 400)]
        assert sizes[0] == want


class _Zeros:
    """Stand-in generator whose normals are all zero."""

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out


def _zero_channel_at(trial):
    """StreamBank whose channel stream draws only zeros at one trial index:
    every link of that trial, reflected or direct, is zero."""

    class Bank(StreamBank):
        def __init__(self, seed, purpose):
            super().__init__(seed, purpose)
            self.zeroed = purpose == "channel"

        def trial(self, k):
            gen = super().trial(k)
            return _Zeros() if self.zeroed and k == trial else gen

    return Bank


def _pb_reference(cfg, snr_db, start, count, zero_at):
    """Per-trial (sent, detected) from a plain scalar loop over the one-trial
    beamformers: gains summed element by element, nearest gain by ``min``.
    Trial ``start + zero_at`` draws an all-zero channel, so every gain is zero."""
    noise = NoiseModel.from_snr_db(snr_db)
    beamformers = {"pb": beamform.optimal_two_tx, "pb-lowcomplexity": beamform.low_complexity_beamform}
    bank = _zero_channel_at(start + zero_at)(cfg.seed, "channel")
    out = []
    for k in range(start, start + count):
        rng = substream(cfg.seed, k, "data")
        l = int(rng.integers(0, cfg.nt))
        if cfg.scheme == "traditional-ssk":
            # the channel stream holds only the direct links, as (re, im) pairs
            z = bank.trial(k).standard_normal(2 * cfg.nt)
            gains = [complex(z[2 * a], z[2 * a + 1]) / math.sqrt(2) for a in range(cfg.nt)]
        else:
            ch = sample_channel(cfg.n, cfg.nt, bank.trial(k))
            if cfg.scheme == "intelligent-ris-ssk":
                phi = beamform.intelligent_ris_phases(ch)[l]
            elif cfg.scheme == "pb-sdr":
                phi = beamform.sdr_beamform(ch, substream(cfg.seed, k, "sdr")).phi
            else:
                phi = beamformers[cfg.scheme](ch)
            gains = [sum(ch.f[i] * ch.G[i, a] * phi[i] for i in range(cfg.n)) for a in range(cfg.nt)]
        y = gains[l] + sample_awgn(noise, rng)
        out.append((l, min(range(cfg.nt), key=lambda a: abs(y - gains[a]))))
    return out


class TestPbKernel:
    @pytest.mark.parametrize(
        "scheme, nt",
        [("pb", 2)]
        + [(s, nt) for s in ("pb-lowcomplexity", "intelligent-ris-ssk", "traditional-ssk", "pb-sdr") for nt in (2, 4, 8)],
    )
    @pytest.mark.parametrize("finite", [True, False])
    def test_decisions_equal_scalar_reference(self, scheme, nt, finite, monkeypatch):
        sdr = scheme == "pb-sdr"
        if sdr:  # few roundings keep the solves cheap
            monkeypatch.setattr(beamform, "_ROUNDINGS", 8)
        cfg = _cfg(scheme=scheme, n=4 if sdr else 8, nt=nt, seed=63)
        count, zero_at = (9, 4) if sdr else (60, 17)
        snr_db = ({"traditional-ssk": 0.0, "pb-sdr": -10.0}.get(scheme, -12.0)) if finite else math.inf
        want = _pb_reference(cfg, snr_db, 900, count, zero_at)
        # chunks of 7 trials: several full chunks and a partial last one
        monkeypatch.setattr(harness, "_CHUNK_ELEMENTS", 7 * harness._trial_elements(cfg))
        monkeypatch.setattr(harness, "StreamBank", _zero_channel_at(900 + zero_at))
        noise = NoiseModel.from_snr_db(snr_db)
        got = [
            (int(s), int(d))
            for sent, detected in harness._pb_chunks(cfg, noise, 900, count)
            for s, d in zip(sent[:, 0], detected[:, 0])
        ]
        assert got == want
        assert want[zero_at][1] == 0  # all gains zero: the tie goes to antenna 0
        rest = want[:zero_at] + want[zero_at + 1 :]
        if finite:
            assert any(s != d for s, d in rest)
        else:
            assert all(s == d for s, d in rest)

    @pytest.mark.parametrize("n, nt", [(16, 4), (64, 8)])
    def test_candidate_set_chunks_keep_temporaries_small(self, n, nt):
        # each (chunk, pairs, N) temporary of the candidate set stays at
        # 2^14 elements or fewer, where whole 2^16 budgets measured slower
        cfg = _cfg(scheme="pb-lowcomplexity", n=n, nt=nt)
        sizes = [len(s) for s, _ in harness._pb_chunks(cfg, NoiseModel(0.0), 0, 400)]
        assert max(sizes) * n * (nt * (nt - 1) // 2) <= 1 << 14
        assert sum(sizes) == 400


class TestDirectLinkBaseline:
    def test_ber_matches_rayleigh_closed_form(self):
        # Nt=2: y = d_l + w decides between two i.i.d. CN(0, 1) links and errs
        # with probability Q(sqrt(rho |d_0 - d_1|^2 / 2)), where |d_0 - d_1|^2 / 2
        # is Exp(1): the Rayleigh average at mean SNR rho / 2.  This checks the
        # draws against theory, not against a reference built from them.
        cfg = _cfg(scheme="traditional-ssk", snr_db_grid=(0.0, 10.0), trials=100_000, seed=10)
        for r in run_ber_sweep(cfg):
            gbar = 10 ** (r.snr_db / 10) / 2
            closed = 0.5 * (1 - math.sqrt(gbar / (1 + gbar)))
            lo, hi = binomial_confidence(r.source_errors, r.trials)  # one bit a trial
            assert lo <= closed <= hi, (r.snr_db, r.ber_source, closed)
            assert r.analytic_source is None

    def test_results_do_not_depend_on_n(self):
        # the channel stream holds only the direct links
        counts = [
            [r.source_errors for r in run_ber_sweep(_cfg(scheme="traditional-ssk", n=n, nt=4, snr_db_grid=(0.0, 5.0)))]
            for n in (1, 8, 64)
        ]
        assert counts[0] == counts[1] == counts[2]


class TestAnalyticSweep:
    def test_missing_closed_form_leaves_ber_empty(self, tmp_path):
        (r,) = analytic_sweep("traditional-ssk", 64, 2, None, [0.0])
        assert r.ber_source is None and r.analytic_source is None
        write_csv([r], tmp_path / "t.csv")
        assert _csv_rows(tmp_path / "t.csv")[0]["ber_source"] == ""

    def test_coded_schemes_require_psk_order(self):
        for m in (None, 3):
            with pytest.raises(ConfigError):
                analytic_sweep("astbc-fast", 64, 4, m, [0.0])

    @pytest.mark.parametrize(
        "scheme, n, nt, m",
        [
            ("nope", 8, 2, None),
            ("pb", 8, 3, None),
            ("pb", 8, 4, None),
            ("traditional-ssk", 0, 5, None),
            ("pb-sdr", 8, 6, None),
            ("astbc-optimal", 7, 2, 2),
        ],
    )
    def test_applies_sweep_dimension_rules(self, scheme, n, nt, m):
        with pytest.raises(ConfigError):
            _cfg(scheme=scheme, n=n, nt=nt, m=m)
        with pytest.raises(ConfigError):
            analytic_sweep(scheme, n, nt, m, [0.0])

    @pytest.mark.parametrize(
        "grid",
        [[True], "05", (0.0, np.True_), [math.nan], [-math.inf], [], [5.0, 0.0], [0.0, 0.0]],
        ids=["bool", "str", "numpy-bool", "nan", "-inf", "empty", "decreasing", "repeated"],
    )
    def test_applies_sweep_grid_rules(self, grid):
        # [True] used to compute 1 dB, nan printed "source=n/a", "05" raised TypeError
        with pytest.raises(ConfigError):
            _cfg(snr_db_grid=grid)
        with pytest.raises(ConfigError):
            analytic_sweep("pb", 8, 2, None, grid)

    def test_keeps_noiseless_point(self):
        records = analytic_sweep("pb", 8, 2, None, np.array([0, math.inf]))
        assert [r.snr_db for r in records] == [0.0, math.inf]


class TestDiversitySlope:
    def test_analytic_coded_curve_slope_minus_two(self):
        grid = [10 * math.log10(rn / 64) for rn in (1e3, 3e3, 1e4)]
        records = analytic_sweep("astbc-fast", 64, 2, 2, grid)
        for r in records:
            r.ber_source = r.analytic_source
        slope = estimate_diversity_slope(records)
        assert slope == pytest.approx(-2.0, abs=0.05)

    def test_flat_curve_zero_slope(self):
        records = [
            BerRecord("pb", 8, 2, None, s, 1000, 10, None, 0.01, None, None, None, 0, None)
            for s in (0.0, 5.0, 10.0)
        ]
        assert estimate_diversity_slope(records) == pytest.approx(0.0, abs=1e-12)

    def test_simulated_direct_link_slope_near_minus_one(self):
        cfg = _cfg(
            scheme="traditional-ssk",
            snr_db_grid=(20.0, 25.0, 30.0),
            trials=400_000,
            seed=5,
        )
        slope = estimate_diversity_slope(run_ber_sweep(cfg))
        assert -1.35 < slope < -0.65

    def test_requires_two_qualifying_points(self):
        records = [
            BerRecord("pb", 8, 2, None, 0.0, 1000, 500, None, 0.5, None, None, None, 0, None)
        ]
        with pytest.raises(ValueError):
            estimate_diversity_slope(records)


class TestOutputFiles:
    def test_empty_records_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_csv([], p)
        assert p.read_text() == (
            "scheme,n,nt,m,snr_db,trials,source_errors,ris_errors,ber_source,"
            "ber_ris,analytic_source,analytic_ris,seed,wall_time_s\n"
        )
        assert _csv_rows(p) == []

    def test_round_trip_at_written_precision(self, tmp_path):
        records = run_ber_sweep(
            _cfg(scheme="astbc-fast", n=16, m=2, snr_db_grid=(-8.0, -4.0), trials=2000)
        )
        p = tmp_path / "rt.csv"
        write_csv(records, p)
        back = _csv_rows(p)
        assert len(back) == len(records)
        for a, row in zip(records, back):
            assert list(row) == list(harness.CSV_COLUMNS)
            for name, cell in row.items():
                x = getattr(a, name)
                if x is None:
                    assert cell == ""
                elif isinstance(x, (str, int)):
                    assert cell == str(x)
                else:
                    assert float(cell) == pytest.approx(x, rel=1e-8)  # 9 significant digits

    def test_rows_in_input_order_and_9_digits(self, tmp_path):
        records = [
            BerRecord("pb", 8, 2, None, s, 100, 7, None, 1 / 3, None, 0.123456789123, None, 1, None)
            for s in (-20.0, -15.0, -10.0)
        ]
        p = tmp_path / "ord.csv"
        write_csv(records, p)
        lines = p.read_text().splitlines()
        assert [ln.split(",")[4] for ln in lines[1:]] == ["-20", "-15", "-10"]
        assert lines[1].split(",")[8] == "0.333333333"
        assert lines[1].split(",")[10] == "0.123456789"

    def test_json_mirrors_fields(self, tmp_path):
        records = run_ber_sweep(_cfg(snr_db_grid=(-10.0,), trials=300))
        p = tmp_path / "r.json"
        write_json(records, p)
        data = json.loads(p.read_text())
        assert len(data) == 1
        assert data[0]["scheme"] == "pb"
        assert data[0]["ris_errors"] is None
        assert data[0]["source_errors"] == records[0].source_errors
        assert set(data[0]) == {f for f in records[0].__dataclass_fields__}

    def test_json_is_strict_with_noiseless_point(self, tmp_path):
        p = tmp_path / "r.json"
        argv = "sweep --scheme pb --n 8 --nt 2 --snr=0,inf --trials 20 --seed 0 --json"
        assert cli.main([*argv.split(), str(p)]) == 0

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        data = json.loads(p.read_text(), parse_constant=reject)
        assert [r["snr_db"] for r in data] == [0.0, "inf"]
        # a finite point is written as before: the plain dump of its fields
        (finite,) = run_ber_sweep(_cfg(snr_db_grid=(0.0,), trials=20, seed=0))
        write_json([finite], p)
        assert p.read_text() == json.dumps([dataclasses.asdict(finite)], indent=1) + "\n"

    def test_io_errors_carry_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            write_csv([], tmp_path / "no" / "such" / "dir.csv")


class TestBinomialConfidence:
    def test_interval_brackets_rate(self):
        lo, hi = binomial_confidence(100, 10_000)
        assert lo < 0.01 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_zero_errors(self):
        lo, hi = binomial_confidence(0, 1000)
        assert lo == 0.0 and hi > 0.0

    @pytest.mark.parametrize("trials", [1, 2, 10, 100, 1000, 10**6])
    def test_ends_are_exact(self, trials):
        assert binomial_confidence(0, trials)[0] == 0.0
        assert binomial_confidence(trials, trials)[1] == 1.0
        for errors in sorted({0, 1, trials // 3, trials - 1, trials}):
            lo, hi = binomial_confidence(errors, trials)
            assert 0.0 <= lo <= errors / trials <= hi <= 1.0
            assert lo < hi

    @pytest.mark.parametrize("errors, trials", [(-1, 10), (11, 10), (0, 0)])
    def test_rejects_counts_outside_trials(self, errors, trials):
        with pytest.raises(ValueError):
            binomial_confidence(errors, trials)


class TestCli:
    def test_readme_command_lines_parse(self):
        # every `ris-ssk ...` line of README's sh blocks, so a renamed or removed option shows here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = [
            line
            for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("ris-ssk ")
        ]
        assert lines
        parser = cli.build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line, comments=True)[1:])

    def test_snr_grid_parsing(self):
        assert cli._parse_snr_grid("-6:-2:2") == (-6.0, -4.0, -2.0)
        assert cli._parse_snr_grid("1,2.5,7") == (1.0, 2.5, 7.0)
        with pytest.raises(ValueError):
            cli._parse_snr_grid("5:1:0")

    def test_config_file_plus_overrides(self, tmp_path):
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text(
            "# comment\nscheme = pb\nn = 8\nnt = 2\nsnr = -14,-10\ntrials = 500\nseed = 1\n"
        )
        out = tmp_path / "out.csv"
        rc = cli.main(
            ["sweep", "--config", str(cfg_file), "--trials", "400", "--out", str(out)]
        )
        assert rc == 0
        rows = _csv_rows(out)
        assert len(rows) == 2 and rows[0]["trials"] == "400" and rows[0]["seed"] == "1"

    @pytest.mark.parametrize("key", ["scheme", "n", "nt", "snr", "trials", "seed"])
    def test_sweep_requires_scheme(self, key, capsys):
        flags = dict(scheme="pb", n="8", nt="2", snr="0", trials="10", seed="0")
        del flags[key]
        argv = ["sweep"] + [f"--{k}={v}" for k, v in flags.items()]
        assert cli.main(argv) == 2
        assert f"missing required setting: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("typo", ["trails = 5", "workerz = 4", "rounding_count = 5", "n = 16"])
    def test_config_file_rejects_unknown_key(self, tmp_path, typo, capsys):
        # a known key on line 3 repeats line 2's n and must not override it
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text(f"scheme = pb\nn = 8\n{typo}\n")
        argv = ["sweep", "--config", str(cfg_file), "--nt", "2", "--snr", "0", "--trials", "10", "--seed", "0"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        key = typo.split()[0]
        why = "repeated" if key in cli._SETTINGS else "unknown"
        assert f"sim.cfg:3: {why} setting {key!r}" in err

    def test_analytic_command(self, tmp_path, capsys):
        out = tmp_path / "theory.csv"
        rc = cli.main(
            ["analytic", "--scheme", "astbc-fast", "--n", "64", "--m", "2",
             "--snr=-8:-4:2", "--out", str(out)]
        )
        assert rc == 0
        rows = _csv_rows(out)
        assert [float(r["snr_db"]) for r in rows] == [-8.0, -6.0, -4.0]
        assert float(rows[0]["analytic_source"]) == pytest.approx(
            analysis.abep_source(analysis.AbepQuery(rho=10**-0.8, n=64, nt=2, m=2)),
            rel=1e-8,
        )

    def test_optimize_command(self, capsys):
        assert cli.main(["optimize", "--method", "two-tx", "--n", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "d_min" in out and "theta" in out
        assert cli.main(["optimize", "--method", "sdr", "--n", "4", "--nt", "4"]) == 0
        out = capsys.readouterr().out
        assert "relaxation_objective" in out

    def test_optimize_leaves_print_options_alone(self, capsys):
        # numpy's defaults, set here so an earlier leak cannot hide one
        with np.printoptions(precision=8, suppress=False):
            before = np.get_printoptions()
            assert cli.main(["optimize", "--method", "two-tx", "--n", "4"]) == 0
            assert np.get_printoptions() == before
        assert "theta = [3.890773 4.696561 2.297066 2.686005]\n" in capsys.readouterr().out

    def test_optimize_brute_runs_at_its_defaults(self, capsys):
        assert cli.main(["optimize", "--method", "brute"]) == 0
        assert "d_min" in capsys.readouterr().out

    def test_optimize_brute_refusal_names_the_levels_that_fit(self, capsys):
        assert cli.main(["optimize", "--method", "brute", "--levels", "16"]) == 2
        err = capsys.readouterr().err
        assert "16^8 = 4294967296 evaluations" in err and "levels of at most 5 fit" in err

    def test_optimize_sdr_solver_line_says_what_it_counts(self, capsys):
        argv = ["optimize", "--method", "sdr", "--n", "16", "--nt", "4", "--seed", "3"]
        assert cli.main(argv) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("solver:")]
        ch = sample_channel(16, 4, substream(3, 0, "channel"))
        g = beamform.sdr_beamform(ch, rng=substream(3, 0, "sdr")).diagnostics
        assert line == (
            f"solver: iterations={g.iterations} (relaxation steps summed over restarts, "
            f"polish not counted) converged={g.converged} (best restart left the last "
            f"stage by tolerance) relaxation_objective={g.relaxation_objective:.6f} "
            f"candidate_index={g.candidate_index}"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            "--scheme pb-lowcomplexity --n 8 --nt 4 --snr=-10 --trials 200 --seed 0",
            "--scheme traditional-ssk --n 4 --nt 8 --snr=-30 --trials 200 --seed 0",
        ],
    )
    def test_printed_interval_is_over_bits(self, argv, tmp_path, capsys):
        # more bit errors than trials at Nt=8: the interval must still be computed
        out = tmp_path / "ci.csv"
        assert cli.main(["sweep", *argv.split(), "--out", str(out)]) == 0
        (r,) = _csv_rows(out)
        text = capsys.readouterr().out
        lo, hi = (float(v) for v in text.split("ci3s=[")[1].split("]")[0].split(","))
        assert lo < float(r["ber_source"]) < hi
        bits = int(r["trials"]) * int(math.log2(int(r["nt"])))
        assert (lo, hi) == pytest.approx(binomial_confidence(int(r["source_errors"]), bits), rel=1e-3)

    @pytest.mark.parametrize("extra", ["--m 4"])
    def test_inapplicable_or_invalid_settings_exit_code(self, extra, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--scheme", "pb", "--n", "8", "--nt", "2", "--snr", "0", "--trials", "10",
                "--seed", "0", "--out", str(out), *extra.split()]
        assert cli.main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_pb_sdr_rejects_psk_order(self):
        base = ["sweep", "--scheme", "pb-sdr", "--n", "4", "--nt", "4", "--snr", "0", "--trials", "1", "--seed", "0"]
        assert cli.main(base + ["--m", "2"]) == 2

    def test_bad_scheme_exit_code(self):
        assert cli.main(["sweep", "--scheme", "pb", "--n", "8", "--nt", "4",
                         "--snr", "0", "--trials", "10", "--seed", "0"]) == 2

    @pytest.mark.parametrize(
        "snr",
        ["nan", "-inf", "0:inf:1", "-inf:0:1", "0:1:inf", "0:1000000:0.000001", "-4000", "4000", "3500",
         "0:1e308:1e-300", "-1e308:1e308:1"],
    )
    def test_non_numeric_snr_exit_code(self, snr, capsys):
        assert cli.main(["sweep", "--scheme", "astbc-optimal", "--n", "8", "--nt", "2", "--m", "2",
                         f"--snr={snr}", "--trials", "10", "--seed", "0"]) == 2
        assert "SNR points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "snr",
        ["nan", "-inf", "5,0", "0:inf:1", "-inf:0:1", "0:1:inf", "0:1000000:0.000001", "4000", "-4000",
         "-1e308:1e308:1", "0:1e308:1e-300", "1e308:-1e308:1"],
    )
    def test_analytic_rejects_bad_snr_grid(self, snr, capsys):
        assert cli.main(["analytic", "--scheme", "pb", "--n", "8", f"--snr={snr}"]) == 2
        out, err = capsys.readouterr()
        assert "SNR" in err and out == ""

    def test_trial_index_limit_checked_before_any_point(self, monkeypatch, capsys):
        # used to run three points, then fail at the fourth's first trial index
        monkeypatch.setattr(harness, "_run_point", lambda *a: pytest.fail("a point ran"))
        args = ["sweep", "--scheme", "pb", "--n", "8", "--nt", "2", "--snr=-30,-29,-28,-27",
                "--trials", str(10**14), "--target-errors", "5", "--seed", "0"]
        assert cli.main(args) == 2
        out, err = capsys.readouterr()
        assert "2^48" in err and out == ""

    @pytest.mark.parametrize(
        "second_passes, code, verdict",
        [(True, 0, "ALL CHECKS PASSED"), (False, 1, "CHECKS FAILED")],
        ids=["pass", "fail"],
    )
    def test_validate_exit_code_and_verdict(self, monkeypatch, capsys, second_passes, code, verdict):
        # the checks themselves run in test_acceptance, criteria 6-10
        checks = [CheckResult("one", True, "1/1", "1/1"), CheckResult("two", second_passes, "x", "y")]
        monkeypatch.setattr(harness, "validate_suite", lambda: checks)
        assert cli.main(["validate"]) == code
        assert capsys.readouterr().out.splitlines() == [c.format() for c in checks] + [verdict]
