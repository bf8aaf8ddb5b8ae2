#!/usr/bin/env python3
"""Record the expected result digest of every workload item into expected.json.

    python3 bench/record_expected.py

Run it only on a commit whose outputs are known to be right: the benchmark
counts every later digest mismatch as a failed solve.  Each digest covers
the exchange sets and shifted bases of a library solve, or the exit code
and stdout bytes of a CLI job.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

run.import_matrex()
from workloads import WORKLOADS  # noqa: E402

recorded = {}
for name, workload in WORKLOADS.items():
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=run.ROOT) as workdir:
        items = workload.setup(Path(workdir))
        digests = {}
        for item in items:
            outcome = workload.run(item)
            if outcome.error is not None:
                sys.exit(f"error: {name} {item.case}: {outcome.error}")
            digests[item.case] = outcome.digest
    recorded[name] = digests
    print(f"{name}: {len(digests)} items", flush=True)
run.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
