"""Regenerate ``data/policy_kernel_m128.npz``, the benchmark's RL policy.

The eval-matrix and serve-mixed workloads load the committed file with
``RLSchedulerPolicy.load`` so that a change to weight initialisation or
to training under ``src/`` never silently changes the benchmark's inputs.
Regenerating it changes ``result_digest`` of both workloads, so do it
only in a PR that re-baselines the benchmark.  This is the exact short
training run that produced the committed file (kernel preset, M = 128,
7 features, ~10 KB, ~13 s)::

    PYTHONPATH=src python benchmarks/e2e/make_fixture.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
FIXTURE = HERE / "data" / "policy_kernel_m128.npz"

TRAIN_COMMAND = [
    "-m", "repro", "train", "Lublin-1",
    "--jobs", "4000", "--seed", "0",
    "--epochs", "6", "--trajectories", "16", "--length", "64",
    "--obsv", "128", "--policy", "kernel", "--update-path", "sparse",
    "-o", str(FIXTURE),
]


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    return subprocess.run([sys.executable, *TRAIN_COMMAND], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
