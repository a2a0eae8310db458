"""One timed set-up: a fresh interpreter imports qexpand and its CLI and
builds the seeded inputs of one workload, then exits.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.make(sys.argv[1], int(sys.argv[2]))
