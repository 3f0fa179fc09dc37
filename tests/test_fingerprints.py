"""Output fingerprints: the byte-identity check for every scheme's sweep.

One small sweep per scheme runs at one worker, and the SHA-256 of each of
its CSV rows and of its JSON bytes must equal the digests committed in
``fingerprints.json``.  Worker-count invariance is criterion 11's check, so
one worker suffices here.  A change that means to move output re-records
the digests with one deliberate command, from the repository root:

    PYTHONPATH=src python tests/test_fingerprints.py

and lists the moved cells in CHANGES.md.
"""

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ris_ssk import harness

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")

# One sweep per scheme on -4, 0, 4 dB and the noiseless point, seed 7.
_GRID = (-4.0, 0.0, 4.0, math.inf)
_SHAPES = {
    "pb": dict(n=8, nt=2),
    "pb-lowcomplexity": dict(n=8, nt=4),
    "pb-sdr": dict(n=4, nt=4, trials=24),
    "intelligent-ris-ssk": dict(n=8, nt=4),
    "traditional-ssk": dict(n=8, nt=4),
    "astbc-fast": dict(n=8, nt=4, m=8),
    "astbc-optimal": dict(n=8, nt=4, m=4),
}


def _outputs(scheme: str, directory: Path) -> tuple[bytes, bytes]:
    """The CSV and JSON bytes of the scheme's fingerprinted sweep."""
    kw = {"trials": 4000, **_SHAPES[scheme]}
    records = harness.run_ber_sweep(harness.SimConfig(scheme=scheme, snr_db_grid=_GRID, seed=7, workers=1, **kw))
    csv_path, json_path = directory / f"{scheme}.csv", directory / f"{scheme}.json"
    harness.write_csv(records, csv_path)
    harness.write_json(records, json_path)
    return csv_path.read_bytes(), json_path.read_bytes()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fingerprint(csv_bytes: bytes, json_bytes: bytes) -> dict:
    return {"csv_rows": [_digest(row) for row in csv_bytes.splitlines()], "json": _digest(json_bytes)}


def test_every_scheme_is_fingerprinted():
    assert sorted(json.loads(FINGERPRINTS.read_text())["schemes"]) == sorted(harness.SCHEMES) == sorted(_SHAPES)


@pytest.mark.parametrize("scheme", sorted(_SHAPES))
def test_sweep_output_matches_its_fingerprint(scheme, tmp_path):
    recorded = json.loads(FINGERPRINTS.read_text())
    want = recorded["schemes"][scheme]
    csv_bytes, json_bytes = _outputs(scheme, tmp_path)
    got = _fingerprint(csv_bytes, json_bytes)
    versions = f"numpy {np.__version__} now, {recorded['numpy']} when recorded"
    rows = csv_bytes.decode().splitlines()
    for i, (g, w) in enumerate(zip(got["csv_rows"], want["csv_rows"])):
        assert g == w, f"{scheme}: CSV row {i} differs ({versions}); it now reads:\n{rows[i]}"
    assert len(got["csv_rows"]) == len(want["csv_rows"]), f"{scheme}: {len(rows)} CSV rows ({versions})"
    assert got["json"] == want["json"], f"{scheme}: JSON bytes differ ({versions}); they now read:\n{json_bytes.decode()}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        schemes = {s: _fingerprint(*_outputs(s, Path(tmp))) for s in sorted(_SHAPES)}
    FINGERPRINTS.write_text(json.dumps({"numpy": np.__version__, "schemes": schemes}, indent=1) + "\n")
    print(f"recorded {FINGERPRINTS}")
