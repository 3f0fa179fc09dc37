"""Command-line front end.

Subcommands: ``sweep`` (Monte Carlo BER), ``analytic`` (theory curves),
``optimize`` (one channel, print phases and distance diagnostics), and
``validate`` (acceptance criteria 6-10).  A flat key=value config file can seed
any sweep; explicit flags override file entries.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import beamform, harness
from .channel import sample_channel, substream

# A start:stop:step grid is counted, and refused past this, before it is built.
_MAX_GRID_POINTS = 10_000


def _snr_point(p: str, text: str) -> float:
    try:
        return float(p)
    except ValueError:
        raise ValueError(f"SNR points must be numbers, not {p.strip()!r}: {text!r}") from None


def _parse_snr_grid(text: str) -> tuple[float, ...]:
    """Grids come as 'start:stop:step' (stop inclusive) or 'a,b,c'; only
    the list form can hold the noiseless point, spelled inf (1e400 is not
    read as inf).  An empty grid is left to the sweep's grid rule."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be start:stop:step")
        start, stop, step = (_snr_point(p, text) for p in parts)
        if not np.isfinite((start, stop, step)).all():
            raise ValueError(f"SNR points of a start:stop:step grid must be finite: {text!r}")
        if step <= 0:
            raise ValueError("grid step must be positive")
        steps = (stop - start) / step
        if not np.isfinite(steps):
            raise ValueError(f"SNR points of a start:stop:step grid cannot be counted: "
                             f"(stop - start) / step overflows: {text!r}")
        count = int(round(steps)) + 1
        if count > _MAX_GRID_POINTS:
            raise ValueError(f"SNR points of a start:stop:step grid number {count}, "
                             f"over the limit of {_MAX_GRID_POINTS}: {text!r}")
        return tuple(start + i * step for i in range(count) if start + i * step <= stop + 1e-9)
    points = text.split(",") if text.strip() else []
    if not all(p.strip() for p in points):
        raise ValueError(f"SNR points of an a,b,c grid must not be empty: {text!r}")
    values = tuple(_snr_point(p, text) for p in points)
    if any(np.isinf(v) and "inf" not in p.lower() for p, v in zip(points, values)):
        raise ValueError(f"finite SNR points must lie within +-{harness._SNR_LIMIT_DB:g} dB: {text!r}")
    return values


def load_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; keys mirror CLI flags,
    and an integer setting's value is read as an int."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise harness.ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _SETTINGS:
                raise harness.ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
            if key in out:
                raise harness.ConfigError(f"{path}:{lineno}: repeated setting {key!r}")
            if not value:  # an empty out would write nothing
                raise harness.ConfigError(f"{path}:{lineno}: {key} needs a value")
            if key in harness._INT_FIELDS:
                try:
                    value = int(value)
                except ValueError:
                    raise harness.ConfigError(f"{path}:{lineno}: {key} must be an integer, got {value!r}") from None
            out[key] = value
    return out


_SETTINGS = ("scheme", "snr", "out", *harness._INT_FIELDS)
_REQUIRED = ("scheme", "n", "nt", "snr", "trials", "seed")


def _build_sim_config(args) -> tuple[harness.SimConfig, str | None]:
    """The validated sweep configuration and the CSV output path, if any."""
    raw: dict = {}
    if args.config:
        raw.update(load_config_file(args.config))
    for key in _SETTINGS:
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    for key in _REQUIRED:
        if key not in raw:
            raise harness.ConfigError(f"missing required setting: {key}")
    scheme = str(raw["scheme"])
    grid = raw["snr"]
    if isinstance(grid, str):
        grid = _parse_snr_grid(grid)
    cfg = harness.SimConfig(
        scheme=scheme,
        snr_db_grid=grid,
        **{k: raw[k] for k in harness._INT_FIELDS if k in raw},
    )
    return cfg, raw.get("out")


def _print_records(records) -> None:
    for r in records:
        ci = ""
        if r.trials and r.source_errors is not None:
            bits = r.trials * harness.SCHEME_TABLE[r.scheme].bits(r.nt, r.m)[0]
            lo, hi = harness.binomial_confidence(r.source_errors, bits)
            ci = f"  ci3s=[{lo:.3e},{hi:.3e}]"
        ris = f"  ber_ris={r.ber_ris:.4e}" if r.ber_ris is not None else ""
        ana = f"  analytic={r.analytic_source:.4e}" if r.analytic_source is not None else ""
        print(
            f"{r.scheme} n={r.n} nt={r.nt} snr={r.snr_db:g} dB: "
            f"ber={r.ber_source:.4e}{ris}{ana}{ci} ({r.trials} trials)"
        )


def _cmd_sweep(args) -> int:
    cfg, out = _build_sim_config(args)
    records = harness.run_ber_sweep(cfg)
    _print_records(records)
    if out:
        harness.write_csv(records, out)
        print(f"wrote {out}")
    if args.json:
        harness.write_json(records, args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_analytic(args) -> int:
    grid = _parse_snr_grid(args.snr)
    records = harness.analytic_sweep(args.scheme, args.n, args.nt, args.m, grid)
    for r in records:
        ris = f"  ris={r.analytic_ris:.6e}" if r.analytic_ris is not None else ""
        src = f"{r.analytic_source:.6e}" if r.analytic_source is not None else "n/a"
        print(f"{r.scheme} n={r.n} snr={r.snr_db:g} dB: source={src}{ris}")
    if args.out:
        harness.write_csv(records, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_optimize(args) -> int:
    ch = sample_channel(args.n, args.nt, substream(args.seed, 0, "channel"))
    if args.method == "sdr":
        rv = beamform.sdr_beamform(ch, substream(args.seed, 0, "sdr"))
    elif args.method == "low-complexity":
        rv = beamform.low_complexity_beamform(ch)
    elif args.method == "two-tx":
        rv = beamform.optimal_two_tx(ch)
    else:
        rv = beamform.brute_force_beamform(ch, args.levels)
    d = beamform.min_pairwise_distance(ch, rv)
    print(f"method={args.method} n={args.n} nt={args.nt} seed={args.seed}")
    with np.printoptions(precision=6, suppress=True):
        print(f"theta = {np.mod(np.angle(getattr(rv, 'phi', rv)), 2 * np.pi)}")
    print(f"d_min = {d:.6f}")
    g = getattr(rv, "diagnostics", None)
    if g is not None:
        print(
            f"solver: iterations={g.iterations} (relaxation steps summed over restarts, "
            f"polish not counted) converged={g.converged} (best restart left the last "
            f"stage by tolerance) relaxation_objective={g.relaxation_objective:.6f} "
            f"candidate_index={g.candidate_index}"
        )
    return 0


def _cmd_validate(args) -> int:
    checks = harness.validate_suite()
    passed = all(c.passed for c in checks)
    print("\n".join([c.format() for c in checks] + ["ALL CHECKS PASSED" if passed else "CHECKS FAILED"]))
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-ssk",
        description="Link-level simulator for RIS-assisted space shift keying",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="Monte Carlo BER sweep")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--scheme", choices=harness.SCHEMES)
    p.add_argument("--n", type=int, help="reflecting elements")
    p.add_argument("--nt", type=int, help="transmit antennas")
    p.add_argument("--m", type=int, help="PSK order (astbc schemes)")
    p.add_argument("--snr", help="SNR grid in dB: start:stop:step or a,b,c")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--target-errors", type=int, dest="target_errors")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--json", help="JSON output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("analytic", help="closed-form curves only")
    p.add_argument("--scheme", required=True, choices=harness.SCHEMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nt", type=int, default=2)
    p.add_argument("--m", type=int)
    p.add_argument("--snr", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("optimize", help="optimize one random channel and print diagnostics")
    p.add_argument("--method", default="sdr",
                   choices=("sdr", "low-complexity", "two-tx", "brute"))
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--nt", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=int, default=4,
                   help="phase levels per element for brute force (levels^n <= 2^20)")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("validate", help="run acceptance criteria 6-10")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("out", "json"):  # an empty path would write nothing
            if getattr(args, flag, None) == "":
                raise harness.ConfigError(f"--{flag} must name a file, got an empty path")
        return args.func(args)
    except (harness.ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
