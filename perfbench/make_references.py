"""Regenerate ``references.json``: the ``bare_x8`` digests of every pool
scenario, for the full sizing and the tests' tiny sizing.

    python3 perfbench/make_references.py

Run it only when a change to the program is meant to change its
results; the benchmark checks every ``bare_x8`` run against this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    refs = {}
    for sizing in (workloads.FULL, workloads.TINY):
        refs[workloads.reference_key(sizing)] = [
            workloads.bare_reference_digests(sizing, k)
            for k in range(workloads.POOL)
        ]
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
