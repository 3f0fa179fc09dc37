"""Measuring process of the benchmark: one workload in a closed loop.

Usage: measure.py WORKLOAD SEED SECONDS TRACE.  ``run.py`` starts it with
the BLAS thread pools pinned to one thread and reads the JSON line it
prints.  With TRACE 0 it times operations untraced for SECONDS and reports
the end-to-end metrics.  With TRACE 1 it times operations untraced for
SECONDS/2, replays the same rounds with every layer wrapped in spans, and
reports the per-layer metrics per round.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import ris_ssk
from ris_ssk import beamform, harness
from ris_ssk.channel import sample_channel, substream

import checks
import tracing
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclasses.dataclass
class Op:
    """One timed operation and what came of it."""

    round: int
    cfg: harness.SimConfig
    wall_s: float
    records: list | None
    problems: list[str] = dataclasses.field(default_factory=list)
    host_s: float = 0.0  # host_probe() time around the operation


_PROBE_X = np.linspace(0.0, 1.0, 64)

# host_probe() time at the fast host speed on the 2-vCPU Xeon machine the
# benchmark was built on, measured between operations.
FAST_PROBE_S = 0.9e-3


def host_probe() -> float:
    """Seconds for a fixed piece of small-array numpy and Python work (~1 ms).

    A shared host runs a vCPU at speeds about 1.7x apart that change every
    few seconds and differ from minute to minute.  Timing this probe next to
    every operation tells at what speed the operation ran.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150):
        acc += float(np.abs(np.exp(1j * _PROBE_X * i).sum()))
    return time.perf_counter() - t0


def corrected_walls(ops: list[Op]) -> list[float]:
    """Operation wall times scaled to the host speed at which the probe takes FAST_PROBE_S."""
    return [op.wall_s * FAST_PROBE_S / op.host_s for op in ops]


def run_op(round_index: int, cfg: harness.SimConfig) -> Op:
    t0 = time.perf_counter()
    try:
        records = harness.run_ber_sweep(cfg)
    except Exception:
        traceback.print_exc()
        return Op(round_index, cfg, time.perf_counter() - t0, None, ["raised"])
    op = Op(round_index, cfg, time.perf_counter() - t0, records)
    op.problems = checks.record_problems(cfg, records)
    return op


def run_rounds(wl: workloads.Workload, seed: int, rounds) -> list[Op]:
    ops = []
    before = host_probe()
    for r in rounds:
        for cfg in wl.configs(seed, r):
            op = run_op(r, cfg)
            after = host_probe()
            op.host_s = (before + after) / 2
            before = after
            ops.append(op)
    return ops


def run_for(wl: workloads.Workload, seed: int, seconds: float) -> list[Op]:
    """Whole rounds, one operation after another, until ``seconds`` have passed."""
    ops: list[Op] = []
    t0 = time.perf_counter()
    r = 0
    while not ops or time.perf_counter() - t0 < seconds:
        ops += run_rounds(wl, seed, [r])
        r += 1
    return ops


def warm_up(wl: workloads.Workload, seed: int) -> None:
    """First call of each scheme, cut short, so lazy set-up is not timed."""
    seen = set()
    for cfg in wl.configs(seed, 0):
        if cfg.scheme not in seen:
            seen.add(cfg.scheme)
            harness.run_ber_sweep(dataclasses.replace(cfg, trials=min(cfg.trials, 40)))


def band_problems(ops: list[Op]) -> None:
    """Pool each SNR point over rounds and apply the Wilson band check."""
    points = defaultdict(list)
    for op in ops:
        if op.records:
            c = op.cfg
            points[(c.scheme, c.n, c.nt, c.m, c.snr_db_grid[0])].append(op)
    for group in points.values():
        cfg, first = group[0].cfg, group[0].records[0]
        b_src, b_ris = checks.bits_per_trial(cfg)
        trials = sum(op.records[0].trials for op in group)
        for stream, one_sided in checks.band_checks(cfg):
            if stream == "source":
                analytic, errors, bits = first.analytic_source, "source_errors", b_src
            else:
                analytic, errors, bits = first.analytic_ris, "ris_errors", b_ris
            if analytic is None or not 1e-3 <= analytic <= 1e-1:
                continue
            total = sum(getattr(op.records[0], errors) for op in group)
            if not checks.wilson_band_ok(total, trials * bits, analytic, one_sided):
                msg = (f"{cfg.scheme} {stream} BER {total / (trials * bits):.4g} at "
                       f"{cfg.snr_db_grid[0]:g} dB outside the band around {analytic:.4g}")
                for op in group:
                    op.problems.append(msg)


def sdr_dmin_ratio(seed: int) -> float:
    """Mean relaxation d_min over mean candidate-set d_min, on seeded channels."""
    ratio_seed = int(np.random.SeedSequence([seed, 1 << 30]).generate_state(1)[0])
    sdr, lc = [], []
    for k in range(workloads.RATIO_CHANNELS):
        ch = sample_channel(workloads.RATIO_N, workloads.RATIO_NT, substream(ratio_seed, k, "channel"))
        sdr.append(beamform.sdr_beamform(ch, rng=substream(ratio_seed, k, "sdr")).diagnostics.d_min)
        lc.append(beamform.min_pairwise_distance(ch, beamform.low_complexity_beamform(ch)))
    return float(np.mean(sdr) / np.mean(lc))


def layer_metrics(tracer: tracing.Tracer, rounds: int, untraced: list[Op], traced: list[Op]):
    """Per-layer metrics per round of the workload, plus the names that do not apply."""
    summary = tracer.summary()
    metrics, not_applicable = {}, []
    calls, total, own = summary.get("harness.run_ber_sweep", (0, 0.0, 0.0))
    metrics["harness.run_ber_sweep.calls"] = (calls / rounds, "count")
    metrics["harness.run_ber_sweep.self_s"] = (own / rounds, "s")
    metrics["harness.self_frac"] = (own / total if total else 0.0, "ratio")
    for name in tracing.LAYER_SPANS:
        calls, _, own = summary.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / rounds, "count")
        metrics[f"{name}.self_s"] = (own / rounds, "s")
        if not calls:
            not_applicable += [f"{name}.calls", f"{name}.self_s"]
    sizes = tracer.observed.get("channel.sample_channel", [])
    metrics["channel.sample_channel.bytes"] = (sum(sizes) / rounds, "bytes_computed")
    if not sizes:
        not_applicable.append("channel.sample_channel.bytes")
    diags = tracer.observed.get("beamform.sdr_beamform", [])
    sdr_names = [f"beamform.sdr_beamform.{k}" for k in ("iterations_p50", "iterations_p95", "converged_frac", "gap_p50")]
    if diags:
        iterations = [d.iterations for d in diags]
        values = (np.percentile(iterations, 50), np.percentile(iterations, 95),
                  np.mean([d.converged for d in diags]), np.median([d.d_min / d.relaxation_objective for d in diags]))
    else:
        values = (0.0,) * 4
        not_applicable += sdr_names
    for name, unit, value in zip(sdr_names, ("iterations", "iterations", "ratio", "ratio"), values):
        metrics[name] = (float(value), unit)
    traced_s = sum(corrected_walls(traced))
    untraced_s = sum(corrected_walls(untraced))
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return metrics, not_applicable


def main() -> None:
    name, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    wl = workloads.get(name)
    OUT_DIR.mkdir(exist_ok=True)
    notes = []
    warm_up(wl, seed)

    untraced = run_for(wl, seed, seconds / 2 if trace else seconds)
    rounds = untraced[-1].round + 1
    all_ops = list(untraced)
    run_failures = []
    if trace:
        tracer = tracing.Tracer()
        with tracing.patched(tracing.layer_wrappers(tracer)):
            traced = run_rounds(wl, seed, range(rounds))
        all_ops += traced
        if [op.records for op in traced] != [op.records for op in untraced]:
            run_failures.append("traced records differ from untraced records")

    band_problems(untraced)
    ratio = sdr_dmin_ratio(seed)
    if ratio < 1.0:
        run_failures.append(f"sdr_dmin_ratio {ratio:.4f} < 1")

    for op in all_ops:
        op.problems += run_failures
    failed = [op for op in all_ops if op.problems]
    notes.append(f"failed_frac = {len(failed)}/{len(all_ops)}")
    for problem in sorted({p for op in failed for p in op.problems}):
        notes.append(f"FAILED: {problem}")

    if trace:
        metrics, not_applicable = layer_metrics(tracer, rounds, untraced, traced)
        if not_applicable:
            notes.append("not applicable on this workload (reported as 0): " + ", ".join(not_applicable))
        spans = OUT_DIR / f"spans-{name}.npz"
        tracer.save(spans, rounds=rounds, seed=seed)
        notes.append(f"{len(tracer.start)} spans over {rounds} rounds written to {spans.relative_to(OUT_DIR.parent.parent)}")
    else:
        walls = corrected_walls(untraced)
        raw = [op.wall_s for op in untraced]
        trials = sum(op.records[0].trials for op in untraced if op.records)
        tail = checks.highest_supported_percentile(len(walls))
        metrics = {
            "trials_per_s": (trials / sum(walls), "1/s"),
            "op_s_p50": (float(np.percentile(walls, 50)), "s"),
            "op_s_p90": (float(np.percentile(walls, 90)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - len(failed) / len(all_ops), "ratio"),
            "sdr_dmin_ratio": (ratio, "ratio"),
        }
        notes.append(
            f"op_s over n={len(walls)} operations in {rounds} rounds; highest percentile with "
            f">= 10 samples beyond it: {'none' if tail is None else f'p{tail:g}'}"
        )
        notes.append(
            f"host speed: median probe {np.median([op.host_s for op in untraced]) / FAST_PROBE_S:.3f}x "
            f"FAST_PROBE_S; uncorrected "
            f"trials_per_s {trials / sum(raw):.6g}, op_s_p50 {np.percentile(raw, 50):.6g}, "
            f"op_s_p90 {np.percentile(raw, 90):.6g}"
        )
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "versions": {"ris_ssk": ris_ssk.__version__, "numpy": np.__version__, "scipy": scipy.__version__},
    }))


if __name__ == "__main__":
    main()
