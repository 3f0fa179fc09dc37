"""Set-up probe: a fresh interpreter imports ris_ssk and makes its first call.

Usage: probe.py WORKLOAD SEED.  Prints one JSON line with the seconds from
this script's first statement until the workload's first operation, cut to
one trial, has returned.
"""

import time

T0 = time.perf_counter()

import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from ris_ssk import harness  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    wl = workloads.get(sys.argv[1])
    cfg = wl.configs(int(sys.argv[2]), 0)[0]
    harness.run_ber_sweep(dataclasses.replace(cfg, trials=1))
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
