"""Telemetry's rollout cost: a paired floor check with no baseline file.

Times the trainer's own epoch collection (``Trainer._collect``) with
telemetry on and off, in pairs whose order alternates, so both paths
see the same machine conditions and slow drift cancels.  The ratio is
summed off-time over summed on-time.  Many short passes resolve a
few-percent effect on a shared core better than a few long ones: a
load burst or frequency step then lands on both paths of the pairs it
spans.  Being a ratio within one run, it needs no committed baseline
and holds on any hardware.

Prints one JSON line and exits 1 when telemetry-on throughput is below
``FLOOR`` times telemetry-off throughput (at most 5 % overhead).  Run it
pinned to one core with one BLAS thread::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src taskset -c 0 \\
        python benchmarks/perf/telemetry_floor.py
"""

from __future__ import annotations

import json
import sys
import time

from repro.config import EnvConfig, TrainConfig
from repro.rl import Trainer
from repro.telemetry import core as telemetry
from repro.workloads import SequenceSampler, load_trace

FLOOR = 0.95
#: on/off pairs; each pass rolls 8 sequences of 24 jobs (192 steps)
PAIRS = 600


def main() -> int:
    trace = load_trace("Lublin-1", n_jobs=400, seed=3)
    sequences = SequenceSampler(trace, 24, seed=1).sample_many(8)
    trainer = Trainer(
        trace,
        metric="bsld",
        env_config=EnvConfig(max_obsv_size=16),
        train_config=TrainConfig(
            trajectories_per_epoch=len(sequences),
            trajectory_length=len(sequences[0]),
            seed=0,
        ),
    )
    # epoch 0 every pass: the same sequences on the same action streams
    trainer._sample_epoch_sequences = lambda epoch: (sequences, 0)
    reg = telemetry.Telemetry(enabled=True)

    def timed(enabled: bool) -> float:
        prev = telemetry.set_active(reg if enabled else None)
        try:
            start = time.perf_counter()
            trainer._collect(0)
            return time.perf_counter() - start
        finally:
            telemetry.set_active(prev)
            reg.drain()  # keep the per-pass cost flat across pairs

    with trainer:
        timed(False)  # warm both paths outside the measured pairs
        timed(True)
        seconds = {True: 0.0, False: 0.0}
        for pair in range(PAIRS):
            # alternate the order so neither path always runs second
            for enabled in (True, False) if pair % 2 == 0 else (False, True):
                seconds[enabled] += timed(enabled)
    on, off = seconds[True], seconds[False]
    steps = PAIRS * sum(len(jobs) for jobs in sequences)
    ratio = off / on
    print(json.dumps({
        "enabled_steps_per_sec": steps / on,
        "disabled_steps_per_sec": steps / off,
        "enabled_over_disabled": ratio,
        "floor": FLOOR,
        "pairs": PAIRS,
    }))
    return 0 if ratio >= FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
