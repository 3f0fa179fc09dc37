"""Sweeps and the sweep, analytic and optimize commands never load scipy or
multiprocessing: scipy is needed only by ``q_exact`` and the validation
suite's quadrature, and a pool only by multi-worker sweeps.

This runs in a fresh interpreter, since the test process itself loads scipy
through other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import ris_ssk

_SCRIPT = r"""
import contextlib, io, math, runpy, sys

import ris_ssk
from ris_ssk import harness

for scheme, n, nt, m in [
    ("pb", 8, 2, None), ("pb-lowcomplexity", 4, 4, None), ("pb-sdr", 4, 4, None),
    ("intelligent-ris-ssk", 8, 2, None), ("traditional-ssk", 8, 4, None),
    ("astbc-fast", 8, 4, 4), ("astbc-optimal", 8, 2, 8),
]:
    cfg = harness.SimConfig(scheme=scheme, n=n, nt=nt, m=m, snr_db_grid=(0.0, math.inf),
                            trials=3, seed=1, workers=1)
    assert len(harness.run_ber_sweep(cfg)) == 2
    harness.analytic_sweep(scheme, n, nt, m, (0.0, 10.0))

commands = [
    ["sweep", "--scheme", "pb", "--n", "8", "--nt", "2", "--snr", "0,5", "--trials", "3", "--seed", "0"],
    ["analytic", "--scheme", "astbc-fast", "--n", "8", "--m", "4", "--snr", "0:10:5"],
] + [["optimize", "--method", method, "--n", "4", "--nt", "4", "--levels", "2"]
     for method in ("sdr", "low-complexity", "brute")]
for argv in commands:
    sys.argv = ["ris_ssk", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("ris_ssk", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            assert exc.code == 0, (argv, exc.code)

loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "multiprocessing"))
print(",".join(loaded))
"""


def test_sweeps_and_commands_never_import_scipy_or_multiprocessing():
    src = str(Path(ris_ssk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
