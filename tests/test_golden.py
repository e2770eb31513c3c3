"""Golden output bytes: a fixed-seed sweep writes the recorded files.

The sweep is the benchmark's ``sweep_reduced`` workload, and its sha256
digests are the ones in ``perfbench/expected.json``, which this test
only reads.  After a deliberate change of output bytes, re-record them
with ``python3 perfbench/run.py --record`` and say why in CHANGES.md.

Every file is compared on every interpreter: the aggregates are
correctly rounded from exact integer sums, so the bytes depend only on
the inputs and on numpy.  numpy does not promise the same ``Generator``
streams across releases, so a mismatch names the numpy version too.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy

from cpnsim.cli import main

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
ARGV = ["--nodes", "1,2,8,25", "--replications", "3", "--seed", "1"]


def test_sweep_writes_the_recorded_bytes(tmp_path):
    files = json.loads(EXPECTED.read_text())["sweep_reduced"]["files"]
    assert main([*ARGV, "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(files)
    where = (f"Python {sys.version.split()[0]}, "
             f"numpy {numpy.__version__}")
    for name, digest in sorted(files.items()):
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, f"{name} differs from the golden bytes ({where})"
