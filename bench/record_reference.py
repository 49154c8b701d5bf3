"""Record the sweep_grid reference hashes into bench/reference.json.

Runs `python3 -m quiverhom sweep` from the source tree as a separate
process, so the recorded artifact hash is the one the command line
itself produces.  The per-cell hashes are taken over each cell's
canonical JSON.  Run it from the repository root, only at a commit whose
sweep output is trusted:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import REFERENCE, SweepGrid, canonical_sha256


def main() -> int:
    root = Path.cwd()
    out = root / ".bench_build" / "quiverhom-bench" / "reference-sweep.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-m", "quiverhom", *SweepGrid.argv, "--out", str(out)], env=env, check=True)
    data = out.read_bytes()
    out.unlink()
    cells = json.loads(data)["cells"]
    reference = {
        "sweep_grid": {
            "argv": SweepGrid.argv,
            "artifact_sha256": hashlib.sha256(data).hexdigest(),
            "artifact_bytes": len(data),
            "cells": {f"{c['t']},{c['n']}": canonical_sha256(c) for c in cells},
        }
    }
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE} ({len(cells)} cells, artifact {len(data)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
