import ast
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
from ris_ssk.channel import NoiseModel, StreamBank, complex_normals, sample_awgn, sample_channel, substream
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
from test_astbc_link import code_matrix
from test_channel import _sites


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


def _elements(cfg) -> int:
    """Elements a trial of the config's kernel holds, as its scheme's row counts them."""
    return harness.SCHEME_TABLE[cfg.scheme].elements(cfg.n, cfg.nt, cfg.m)


def _csv_rows(path) -> list[dict]:
    """A written CSV's rows, each a dict of column name to cell text."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# Each invalid config and the error it raises: ConfigError for a value
# out of range, TypeError for a wrong type.  A range case also gives its
# message, which names the setting in the number rule's one form.
_INVALID_CONFIGS = [
    (dict(scheme="nope"), ConfigError),
    (dict(n=0), ConfigError, "n must be at least 1, got 0"),
    (dict(nt=3), ConfigError, "nt must be a power of two, got 3"),
    (dict(scheme="pb", nt=4), ConfigError),
    (dict(scheme="astbc-fast", m=None), ConfigError),
    (dict(scheme="astbc-fast", m=3), ConfigError, "m must be a power of two, got 3"),
    (dict(scheme="astbc-fast", n=7, m=2), ConfigError),
    (dict(snr_db_grid=()), ConfigError),
    (dict(snr_db_grid=(-10.0, -10.0)), ConfigError),
    (dict(snr_db_grid=(-10.0, -12.0)), ConfigError),
    (dict(trials=0), ConfigError, "trials must be at least 1, got 0"),
    (dict(seed=-1), ConfigError, f"seed must be in [0, {2**64}), got -1"),
    (dict(seed=2**64 + 5), ConfigError, f"seed must be in [0, {2**64}), got {2**64 + 5}"),
    (dict(workers=0), ConfigError, "workers must be at least 1, got 0"),
    (dict(target_errors=0), ConfigError, "target_errors must be at least 1, got 0"),
    (dict(snr_db_grid=(math.nan,)), ConfigError),
    (dict(snr_db_grid=(-math.inf,)), ConfigError),
    (dict(snr_db_grid=(-10.0, math.nan)), ConfigError),
    (dict(scheme="pb", m=4), ConfigError),
    (dict(scheme="pb-sdr", nt=4, m=2), ConfigError),
    (dict(scheme="traditional-ssk", m=2), ConfigError),
    (dict(scheme="astbc-optimal", m=1), ConfigError, "m must be at least 2, got 1"),
    # Non-integers are a TypeError: a float seed would alias an
    # integer seed's streams; the others would fail deep in the kernel.
    (dict(seed=2.5), TypeError),
    (dict(seed=3.0), TypeError),
    (dict(trials=10.5), TypeError),
    (dict(n=4.0), TypeError),
    (dict(nt=2.0), TypeError),
    (dict(scheme="astbc-fast", m=2.0), TypeError),
    (dict(workers=1.5), TypeError),
    (dict(target_errors=3.5), TypeError),
    (dict(n=True), TypeError),
    # a flag is True or False: "no" or 2 would switch timing on
    (dict(record_wall_time="no"), TypeError),
    (dict(record_wall_time=2), TypeError),
    (dict(record_wall_time=1), TypeError),
    # past +-3000 dB: at -3082.5 dB the detectors' squared
    # distances overflow; past about 3082 dB 10^(s/10) overflows
    (dict(snr_db_grid=(3000.5,)), ConfigError),
    (dict(snr_db_grid=(-3082.5,)), ConfigError),
    (dict(snr_db_grid=(4000.0,)), ConfigError),
    (dict(snr_db_grid=(-4000.0,)), ConfigError),
    (dict(snr_db_grid=(-10.0, 3500.0)), ConfigError),
    # point 1 would reach trial index 2^48
    (dict(trials=2**47 + 1, snr_db_grid=(0.0, 1.0)), ConfigError),
]


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
        "kw, error, message", [(*case, None)[:3] for case in _INVALID_CONFIGS],
        ids=[f"kw{i}" for i in range(len(_INVALID_CONFIGS))],
    )
    def test_rejects_invalid(self, kw, error, message):
        with pytest.raises(error) as info:
            _cfg(**kw)
        assert message is None or str(info.value) == message

    @pytest.mark.parametrize(
        "grid",
        ["05", "", b"05", (True,), (0.0, np.True_), (1j,), ("5",), (None,)],
        ids=["str", "empty-str", "bytes", "bool", "numpy-bool", "complex", "str-entry", "none-entry"],
    )
    def test_rejects_grid_that_is_not_real_numbers(self, grid):
        # "05" used to sweep 0 dB and 5 dB, one per character; True swept 1 dB
        with pytest.raises(TypeError, match="real number"):
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


def _compared_strings(node) -> list[str]:
    """The string constants ``node`` compares with, alone or in a tuple,
    list or set; none if ``node`` is no comparison."""
    if not isinstance(node, ast.Compare):
        return []
    operands = [node.left, *node.comparators]
    items = [e for o in operands for e in (o.elts if isinstance(o, (ast.Tuple, ast.List, ast.Set)) else [o])]
    return [e.value for e in items if isinstance(e, ast.Constant) and isinstance(e.value, str)]


def _is_scheme_name_compare(node) -> bool:
    """Is ``node`` a comparison with a scheme-name string, or with a tuple,
    list or set that holds one?"""
    return any(s in harness.SCHEMES for s in _compared_strings(node))


def _is_string_compare(node) -> bool:
    """Is ``node`` a comparison with any string constant, or with a tuple,
    list or set that holds one?"""
    return bool(_compared_strings(node))


class TestSchemeTable:
    def test_scheme_names_are_compared_nowhere(self):
        # a scheme's rules live in its row of harness.SCHEME_TABLE; a branch
        # on its name elsewhere would be a second place that defines it
        assert _sites(_is_scheme_name_compare) == set()

    def test_the_guard_sees_branches_on_names(self):
        code = 'a == "pb"\n"pb-sdr" != a\na in ("astbc-fast", "x")\na not in ["traditional-ssk"]\na in {"pb"}\na == "sdr"'
        assert sum(map(_is_scheme_name_compare, ast.walk(ast.parse(code)))) == 5

    def test_schemes_keep_their_order(self):
        # the CLI's choices and the tests' parametrizations read SCHEMES
        assert harness.SCHEMES == ("pb", "pb-lowcomplexity", "pb-sdr", "intelligent-ris-ssk", "traditional-ssk",
                                   "astbc-fast", "astbc-optimal")


class TestRowsHoldValues:
    def test_harness_and_analysis_compare_no_strings(self):
        # a row's closed form is its function and ``coded`` its flag, so the
        # table's modules branch on no label: a new closed form is a function
        # in one cell, not a label, a branch and an error path
        sites = {site for site in _sites(_is_string_compare) if site[0] in ("harness", "analysis")}
        assert sites == set(), sorted(sites)

    def test_the_guard_sees_labels(self):
        code = 'self.family == "coded"\nform in ("beamformed", "coded")\nname == "scheme"\nnt == 2\nx is None'
        assert sum(map(_is_string_compare, ast.walk(ast.parse(code)))) == 3


@pytest.fixture
def fake_pool(monkeypatch):
    """Replaces multiprocessing.Pool by one that runs each part in this
    process and starts no process; returns the process counts asked for and
    the part count of every starmap call."""
    import multiprocessing

    asked, parts = [], []

    class FakePool:
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
    return asked, parts


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

    def test_pool_bounded_by_cpus_and_split_by_workers(self, fake_pool):
        import os

        asked, parts = fake_pool
        cfg = _cfg(snr_db_grid=(-10.0,), trials=20_000)
        many = run_ber_sweep(dataclasses.replace(cfg, workers=10_000))
        assert len(asked) == 1 and 1 <= asked[0] <= os.cpu_count()
        assert parts == [10_000]
        assert many == run_ber_sweep(cfg)

    def test_block_smaller_than_twice_the_workers_goes_through_the_pool(self, fake_pool):
        # every block is split cfg.workers ways, however small
        asked, parts = fake_pool
        cfg = _cfg(snr_db_grid=(-10.0,), trials=3)
        assert run_ber_sweep(dataclasses.replace(cfg, workers=2)) == run_ber_sweep(cfg)
        assert len(asked) == 1 and parts == [2]

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
        y1, y2 = code_matrix(alphas[k1], alphas[k2]) @ np.array([h1[l], h2[l]])
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
        per_trial = _elements(cfg)
        counts = []
        for trials in (1, 7, harness._CHUNK_ELEMENTS // per_trial):
            monkeypatch.setattr(harness, "_CHUNK_ELEMENTS", trials * per_trial)
            noise = NoiseModel.from_snr_db(-4.0)
            sizes = [len(s) for s, _ in harness._chunks(cfg, noise, 5, 300)]
            assert sizes[:-1] == [min(trials, 300)] * (len(sizes) - 1) and sum(sizes) == 300
            counts.append(harness._count_trials(cfg, -4.0, 5, 300))
        assert counts[0] == counts[1] == counts[2]

    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    def test_kept_chunks_equal_chunks_copied_as_they_come(self, scheme, monkeypatch):
        # a caller may keep every chunk, as list() does; no chunk may be
        # overwritten by the next
        monkeypatch.setattr(beamform, "_ROUNDINGS", 8)  # cheap pb-sdr solves
        m = 2 if harness.SCHEME_TABLE[scheme].coded else None
        cfg = _cfg(scheme=scheme, n=4, nt=2, m=m, seed=64)
        monkeypatch.setattr(harness, "_CHUNK_ELEMENTS", 10 * _elements(cfg))
        noise = NoiseModel.from_snr_db(-4.0)
        copied = [(s.copy(), d.copy()) for s, d in harness._chunks(cfg, noise, 0, 30)]
        kept = list(harness._chunks(cfg, noise, 0, 30))
        assert len(kept) == len(copied) == 3
        assert not np.array_equal(copied[0][0], copied[2][0])  # the chunks differ
        for (s, d), (s_copy, d_copy) in zip(kept, copied):
            assert np.array_equal(s, s_copy) and np.array_equal(d, d_copy)

    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    def test_noiseless_trials_draw_no_noise(self, scheme, monkeypatch):
        # at n0 = 0 no trial draws a noise normal from its data stream
        monkeypatch.setattr(beamform, "_ROUNDINGS", 8)  # cheap pb-sdr solves
        monkeypatch.setattr(harness, "StreamBank", _NoiseRefusingBank)
        m = 2 if harness.SCHEME_TABLE[scheme].coded else None
        cfg = _cfg(scheme=scheme, n=4, nt=2, m=m, seed=65)
        chunks = list(harness._chunks(cfg, NoiseModel.from_snr_db(math.inf), 0, 30))
        assert sum(len(s) for s, _ in chunks) == 30
        assert all(np.array_equal(s, d) for s, d in chunks)

    @pytest.mark.parametrize("scheme", [s for s in harness.SCHEMES if s != "pb"])
    def test_draw_phase_keys_streams_by_the_block(self, scheme, monkeypatch):
        # one block call per stream and chunk, and no one-trial re-key on the
        # channel and data streams; pb-sdr re-keys its sdr stream per solve
        monkeypatch.setattr(beamform, "_ROUNDINGS", 8)  # cheap pb-sdr solves
        calls = []
        monkeypatch.setattr(harness, "StreamBank", type("Bank", (_CountingBank,), {"calls": calls}))
        m = 2 if harness.SCHEME_TABLE[scheme].coded else None
        cfg = _cfg(scheme=scheme, n=4, nt=2, m=m, snr_db_grid=(-4.0,), trials=30, seed=67)
        monkeypatch.setattr(harness, "_CHUNK_ELEMENTS", 10 * _elements(cfg))
        harness.run_ber_sweep(cfg)
        assert [c for c in calls if c[0] != "sdr"] == [("channel", "draw"), ("data", "draw")] * 3
        assert calls.count(("sdr", "trial")) == (30 if scheme == "pb-sdr" else 0)

    @pytest.mark.parametrize(
        "kw, want",
        [
            (dict(scheme="astbc-optimal", n=16, nt=4, m=4, snr_db_grid=(-6.0, -2.0), seed=31),
             [(979, 1804), (495, 812)]),
            (dict(scheme="astbc-fast", n=16, nt=4, m=8, snr_db_grid=(-4.0, 0.0), seed=32),
             [(1005, 3137), (518, 1674)]),
            (dict(scheme="pb", n=16, snr_db_grid=(-16.0, -12.0), seed=41), [(55, None), (5, None)]),
            (dict(scheme="pb-lowcomplexity", nt=4, snr_db_grid=(-8.0, -4.0), seed=42), [(578, None), (230, None)]),
            (dict(scheme="pb-sdr", n=4, nt=4, snr_db_grid=(-4.0, 0.0), trials=15, seed=43), [(4, None), (0, None)]),
            (dict(scheme="intelligent-ris-ssk", nt=4, snr_db_grid=(-10.0, -6.0), seed=44), [(1698, None), (1573, None)]),
            (dict(scheme="traditional-ssk", nt=4, snr_db_grid=(0.0, 5.0), seed=45), [(1151, None), (730, None)]),
            (dict(scheme="pb-lowcomplexity", nt=8, snr_db_grid=(-4.0, 0.0), seed=46), [(1030, None), (427, None)]),
            (dict(scheme="intelligent-ris-ssk", nt=8, snr_db_grid=(-6.0, -2.0), seed=47), [(2598, None), (2335, None)]),
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
        # pb-sdr when the relaxation's ascent schedules were shortened, when
        # its polish became a race and when the relaxation's gain tolerance
        # went from 1e-8 to 1e-4 (after the counts matched the scalar
        # reference of TestPbKernel and a workers=2 run).  The
        # traditional-ssk counts were recorded again when its channel stream
        # came to hold only the 2·Nt direct-link normals, after they matched
        # the scalar reference of TestPbKernel on the same draws and a
        # workers=2 run, and the intelligent-ris-ssk counts when its receiver
        # came to compare y with every hypothesis's aligned point
        # sum_i |f_i| |g_ia| instead of the points under the sent antenna's
        # alignment, after they matched the scalar reference and a workers=2
        # run.  The N=64 pb point spans forty chunks.
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


class _NoiseRefusingBank(StreamBank):
    """StreamBank whose data stream keeps its raw words and refuses every
    normal draw, a one-trial generator's or a block's noise row, so a trial
    that draws noise raises."""

    class _Words:
        def __init__(self, gen):
            self.bit_generator = gen.bit_generator

        def standard_normal(self, *args, **kwargs):
            raise AssertionError("a noiseless trial drew noise")

    def __init__(self, seed, purpose):
        super().__init__(seed, purpose)
        self.data = purpose == "data"

    def trial(self, k):
        gen = super().trial(k)
        return self._Words(gen) if self.data else gen

    def draw(self, start, rows, k=0):
        if self.data and any(row is not None for row in rows):
            raise AssertionError("a noiseless trial drew noise")
        return super().draw(start, rows, k)


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

        def draw(self, start, rows, k=0):
            words = super().draw(start, rows, k)
            if self.zeroed and 0 <= trial - start < len(rows):
                rows[trial - start][...] = 0.0
            return words

    return Bank


class _CountingBank(StreamBank):
    """StreamBank that logs each (purpose, method) call in ``calls``."""

    calls: list

    def __init__(self, seed, purpose):
        super().__init__(seed, purpose)
        self.purpose = purpose

    def trial(self, k):
        self.calls.append((self.purpose, "trial"))
        return super().trial(k)

    def draw(self, start, rows, k=0):
        self.calls.append((self.purpose, "draw"))
        return super().draw(start, rows, k)


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
                # hypothesis a's point, with the surface aligned to antenna a
                gains = [sum(abs(ch.f[i] * ch.G[i, a]) for i in range(cfg.n)) for a in range(cfg.nt)]
            else:
                if cfg.scheme == "pb-sdr":
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
        snr_db = ({"traditional-ssk": 0.0, "pb-sdr": -20.0}.get(scheme, -12.0)) if finite else math.inf
        want = _pb_reference(cfg, snr_db, 900, count, zero_at)
        # chunks of 7 trials: several full chunks and a partial last one
        monkeypatch.setattr(harness, "_CHUNK_ELEMENTS", 7 * _elements(cfg))
        monkeypatch.setattr(harness, "StreamBank", _zero_channel_at(900 + zero_at))
        noise = NoiseModel.from_snr_db(snr_db)
        got = [
            (int(s), int(d))
            for sent, detected in harness._chunks(cfg, noise, 900, count)
            for s, d in zip(sent[:, 0], detected[:, 0])
        ]
        assert got == want
        assert want[zero_at][1] == 0  # all gains zero: the tie goes to antenna 0
        rest = want[:zero_at] + want[zero_at + 1 :]
        if finite:
            assert any(s != d for s, d in rest)
        else:
            assert all(s == d for s, d in rest)

    @pytest.mark.parametrize("n, snr_db", [(8, -14.0), (64, -28.0)])
    def test_pb_per_trial_draws_equal_the_shared_draw_phase(self, n, snr_db):
        # at Nt=2 the candidate set is the closed form, so pb, which draws
        # through per-trial sample_channel and transmit_pb calls, and
        # pb-lowcomplexity, which draws through the shared draw phase,
        # decide alike on the same seed
        noise = NoiseModel.from_snr_db(snr_db)
        (pb_sent, pb_detected), (lc_sent, lc_detected) = (
            [np.concatenate(a) for a in zip(*harness._chunks(_cfg(scheme=s, n=n, seed=66), noise, 0, 1000))]
            for s in ("pb", "pb-lowcomplexity")
        )
        assert np.array_equal(pb_sent, lc_sent) and np.array_equal(pb_detected, lc_detected)
        assert (pb_sent != pb_detected).any()

    @pytest.mark.parametrize("n, nt", [(16, 4), (64, 8)])
    def test_candidate_set_chunks_keep_temporaries_small(self, n, nt):
        # each (chunk, pairs, N) temporary of the candidate set stays at
        # 2^14 elements or fewer, where whole 2^16 budgets measured slower
        cfg = _cfg(scheme="pb-lowcomplexity", n=n, nt=nt)
        sizes = [len(s) for s, _ in harness._chunks(cfg, NoiseModel(0.0), 0, 400)]
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


class TestAlignmentBaseline:
    @pytest.mark.parametrize("n", [8, 32])
    def test_ber_matches_bulk_channel_oracle(self, n):
        # Nt=2: hypothesis a's point is the real B_a = sum_i |f_i| |g_ia|, so
        # y = B_l + w errs with probability Q(|D| / sqrt(2 N0)), D = B_1 - B_2.
        # The oracle averages that over bulk draws on the oracle stream; the
        # CLT takes D as N(0, N(2 - pi/2)), which gives the arctan form.
        snr_db, draws, chunk = -10.0, 200_000, 20_000
        cfg = _cfg(scheme="intelligent-ris-ssk", n=n, snr_db_grid=(snr_db,), trials=100_000, seed=12)
        (r,) = run_ber_sweep(cfg)
        rho = 10 ** (snr_db / 10)
        rng = substream(12, n, "oracle")
        oracle = 0.0
        for _ in range(draws // chunk):
            mag = np.abs(complex_normals(rng.standard_normal((chunk, 6 * n))))
            f, g1, g2 = mag[:, :n], mag[:, n : 2 * n], mag[:, 2 * n :]
            d = (f * (g1 - g2)).sum(axis=1)
            oracle += analysis.q_exact(np.abs(d) * math.sqrt(rho / 2)).sum() / draws
        clt = 0.5 - math.atan(math.sqrt(rho * n * (2 - math.pi / 2) / 2)) / math.pi
        lo, hi = binomial_confidence(r.source_errors, r.trials)  # one bit a trial
        assert lo <= oracle <= hi, (r.ber_source, lo, hi, oracle, clt)
        assert clt == pytest.approx(oracle, rel=0.05)


class TestBeamformingBeatsBaselines:
    @pytest.mark.parametrize("nt", [4, 8])
    def test_low_complexity_beats_both_baselines(self, nt):
        # the abstract's claim beyond criterion 5's Nt=2, by its 3-sigma rule
        trials = 10_000
        ber = {
            scheme: [r.ber_source for r in run_ber_sweep(
                _cfg(scheme=scheme, n=32, nt=nt, snr_db_grid=(-15.0, -10.0), trials=trials, seed=52))]
            for scheme in ("pb-lowcomplexity", "intelligent-ris-ssk", "traditional-ssk")
        }
        pb = ber.pop("pb-lowcomplexity")
        for scheme, base in ber.items():
            for a, b in zip(pb, base):
                sigma = math.sqrt((a * (1 - a) + b * (1 - b)) / trials)
                assert a <= b - 3 * sigma, (scheme, pb, base)


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
        "grid, error",
        [([True], TypeError), ("05", TypeError), ((0.0, np.True_), TypeError), ([math.nan], ConfigError),
         ([-math.inf], ConfigError), ([], ConfigError), ([5.0, 0.0], ConfigError), ([0.0, 0.0], ConfigError)],
        ids=["bool", "str", "numpy-bool", "nan", "-inf", "empty", "decreasing", "repeated"],
    )
    def test_applies_sweep_grid_rules(self, grid, error):
        # [True] used to compute 1 dB, nan printed "source=n/a"
        with pytest.raises(error):
            _cfg(snr_db_grid=grid)
        with pytest.raises(error):
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

    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    def test_float_cells_are_python_floats(self, scheme):
        # numpy.float64 subclasses float, so CSV and JSON text cannot tell
        # the two apart; M=4 takes the coded surface forms through np.log2
        m = 4 if harness.SCHEME_TABLE[scheme].coded else None
        grid = (0.0, 6.0)
        records = run_ber_sweep(_cfg(scheme=scheme, m=m, snr_db_grid=grid, trials=20, record_wall_time=True))
        records += analytic_sweep(scheme, 8, 2, m, grid)
        cells = [getattr(r, c) for r in records for c in harness.CSV_COLUMNS if c not in harness._INT_COLUMNS]
        assert {type(v) for v in cells} - {str, type(None)} == {float}

    def test_io_errors_carry_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            write_csv([], tmp_path / "no" / "such" / "dir.csv")
        with pytest.raises(OSError, match="cannot write JSON to .*no/such"):
            write_json([], tmp_path / "no" / "such" / "r.json")


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

    @pytest.mark.parametrize("errors, trials", [(1.5, 10), (True, 2), (3, 10.5)])
    def test_rejects_counts_that_are_not_integers(self, errors, trials):
        # 1.5 of 10 gave (0.019, 0.61) and True of 2 gave (0.048, 0.95)
        with pytest.raises(TypeError):
            binomial_confidence(errors, trials)

    @pytest.mark.parametrize(
        "z, error",
        [(-3.0, ValueError), (0.0, ValueError), (math.nan, ValueError), (math.inf, ValueError), (True, TypeError)],
    )
    def test_rejects_z_that_is_not_a_finite_positive_real(self, z, error):
        # z=-3 gave the inverted interval (0.160, 0.014) and z=nan (nan, nan)
        with pytest.raises(error):
            binomial_confidence(5, 100, z=z)


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


class TestCli:
    def test_readme_command_lines_parse(self):
        # every `ris-ssk ...` line of README's sh blocks, so a renamed or removed option shows here
        readme = _readme()
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

    def test_readme_library_sketch_runs(self):
        # the README's Python sketch, so a renamed or removed export it names shows here
        (sketch,) = re.findall(r"## Library sketch\n\n```python\n(.*?)```", _readme(), re.S)
        namespace = {}
        exec(compile(sketch, "README.md", "exec"), namespace)
        assert [r.trials for r in namespace["records"]] == [10_000] * 3

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

    def test_config_file_rejects_a_line_without_a_value(self, tmp_path, capsys):
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text("scheme = pb\nn 8\n")
        argv = ["sweep", "--config", str(cfg_file), "--nt", "2", "--snr", "0", "--trials", "10", "--seed", "0"]
        assert cli.main(argv) == 2
        assert "sim.cfg:2: expected key = value" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["n = 8.0", "trials = 1e3"])
    def test_config_file_integer_names_its_setting_and_line(self, tmp_path, line, capsys):
        # these exited with "invalid literal for int() with base 10: '8.0'"
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text(f"scheme = pb\n{line}\n")
        argv = ["sweep", "--config", str(cfg_file), "--nt", "2", "--snr", "0", "--seed", "0"]
        argv += ["--n", "8"] if line.startswith("trials") else ["--trials", "10"]
        assert cli.main(argv) == 2
        key, value = line.split(" = ")
        assert f"sim.cfg:2: {key} must be an integer, got {value!r}" in capsys.readouterr().err

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

    def test_optimize_low_complexity_command(self, capsys):
        assert cli.main(["optimize", "--method", "low-complexity", "--n", "6", "--nt", "4", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        ch = sample_channel(6, 4, substream(5, 0, "channel"))
        d = beamform.min_pairwise_distance(ch, beamform.low_complexity_beamform(ch))
        assert out.startswith("method=low-complexity n=6 nt=4 seed=5\n")
        assert f"d_min = {d:.6f}\n" in out and "solver:" not in out

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

    @pytest.mark.parametrize(
        "command, extra, message",
        [("sweep", ["--out="], "--out must name a file, got an empty path"),
         ("sweep", ["--json="], "--json must name a file, got an empty path"),
         ("config", [], "sim.cfg:7: out needs a value"),
         ("analytic", ["--out="], "--out must name a file, got an empty path")],
    )
    def test_empty_output_path_is_refused(self, command, extra, message, tmp_path, monkeypatch, capsys):
        # each exited 0 after printing its points, with no file written
        monkeypatch.setattr(harness, "_run_point", lambda *a: pytest.fail("a point ran"))
        monkeypatch.setattr(harness, "analytic_sweep", lambda *a: pytest.fail("a point ran"))
        if command == "analytic":
            argv = ["analytic", "--scheme", "pb", "--n", "8", "--snr=0"]
        else:
            cfg_file = tmp_path / "sim.cfg"
            cfg_file.write_text("scheme = pb\nn = 8\nnt = 2\nsnr = 0\ntrials = 10\nseed = 0\n"
                                + ("out =\n" if command == "config" else ""))
            argv = ["sweep", "--config", str(cfg_file)]
        assert cli.main(argv + extra) == 2
        out, err = capsys.readouterr()
        assert message in err and out == ""

    def test_pb_sdr_rejects_psk_order(self):
        base = ["sweep", "--scheme", "pb-sdr", "--n", "4", "--nt", "4", "--snr", "0", "--trials", "1", "--seed", "0"]
        assert cli.main(base + ["--m", "2"]) == 2

    def test_bad_scheme_exit_code(self):
        assert cli.main(["sweep", "--scheme", "pb", "--n", "8", "--nt", "4",
                         "--snr", "0", "--trials", "10", "--seed", "0"]) == 2

    @pytest.mark.parametrize(
        "snr",
        ["nan", "-inf", "0:inf:1", "-inf:0:1", "0:1:inf", "0:1000000:0.000001", "-4000", "4000", "3500",
         "0:1e308:1e-300", "-1e308:1e308:1", "1e400", "0,1e400", "0,,3", ",0", "0,3,", "abc", "0:3:1x", "1,two"],
    )
    def test_non_numeric_snr_exit_code(self, snr, capsys):
        assert cli.main(["sweep", "--scheme", "astbc-optimal", "--n", "8", "--nt", "2", "--m", "2",
                         f"--snr={snr}", "--trials", "10", "--seed", "0"]) == 2
        assert "SNR points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "snr",
        ["nan", "-inf", "5,0", "0:inf:1", "-inf:0:1", "0:1:inf", "0:1000000:0.000001", "4000", "-4000",
         "-1e308:1e308:1", "0:1e308:1e-300", "1e308:-1e308:1", "1e400", "0,1e400", "0,,3", ",0", "0,3,", "abc",
         "0:3:1x", "1,two"],
    )
    def test_analytic_rejects_bad_snr_grid(self, snr, capsys):
        assert cli.main(["analytic", "--scheme", "pb", "--n", "8", f"--snr={snr}"]) == 2
        out, err = capsys.readouterr()
        assert "SNR" in err and out == ""

    @pytest.mark.parametrize("command", ["sweep", "analytic"])
    def test_snr_grid_needs_three_fields(self, command, capsys):
        argv = [command, "--scheme", "pb", "--n", "8", "--snr=0:1"]
        if command == "sweep":
            argv += ["--nt", "2", "--trials", "10", "--seed", "0"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert "grid must be start:stop:step" in err and out == ""

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
