"""float32 vs float64 learner, same code, same seeds: reduced-scale parity.

The networks are created float32 (``repro.nn.layers``); casting their
parameters with ``Module.astype(np.float64)`` before the first epoch
makes the *same code* the float64 learner the repo ran until PR 23 (a
float64-created network reproduces that PR's parent digests bit for bit,
CHANGES.md).  This bench trains the kernel policy on Lublin-1 both ways
from each of a few seeds and writes ``RESULTS_dtype.json`` at the repo
root: per-epoch mean reward for every run, the float64 seed-to-seed
spread, how far a curve moves when only the dtype changes, and the
RL-vs-{FCFS, SJF, F1} bounded-slowdown verdict under each dtype.

Criterion, fixed before the first run: changing the dtype moves a
learning curve by less than changing the seed does (per seed, the mean
over epochs of ``|reward32 - reward64|`` is at most the mean over epochs
of the float64 ``max - min`` across seeds), and for every seed RL lands
on the same side of each heuristic under both dtypes.

Nothing gates on the file; CHANGES.md cites it.  Run explicitly (a few
minutes)::

    PYTHONPATH=src python -m pytest benchmarks/test_dtype_parity.py -s
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import repro
from repro.api import compare
from repro.rl import Trainer
from repro.schedulers import F1, FCFS, SJF

RESULTS = Path(__file__).resolve().parents[1] / "RESULTS_dtype.json"

SEEDS = (0, 1, 2)
HEURISTICS = (FCFS, SJF, F1)
#: the paper's observation window, PPO iterations and minibatch (one
#: epoch is exactly one 4 096-step minibatch) on a shortened schedule:
#: 30 epochs of 32 x 128-job trajectories.  Every run is scored on the
#: same held-out sequences, so a verdict differs only through the policy.
SCALE = dict(
    trace="Lublin-1", n_jobs=4000, max_obsv_size=128, pi_iters=80, v_iters=80,
    epochs=30, trajectories=32, length=128,
    eval_sequences=10, eval_length=256, eval_seed=1000,
)


def train(trace, seed: int, dtype) -> tuple[list[float], dict[str, float]]:
    """One training run with ``dtype`` networks: its per-epoch mean
    reward and the bsld of the trained policy and the heuristics on the
    same held-out sequences."""
    trainer = Trainer(
        trace,
        metric="bsld",
        env_config=repro.EnvConfig(max_obsv_size=SCALE["max_obsv_size"]),
        ppo_config=repro.PPOConfig(
            train_pi_iters=SCALE["pi_iters"], train_v_iters=SCALE["v_iters"]
        ),
        train_config=repro.TrainConfig(
            epochs=SCALE["epochs"], trajectories_per_epoch=SCALE["trajectories"],
            trajectory_length=SCALE["length"], seed=seed,
        ),
    )
    # before the first epoch: the actors' replicas and Adam's state are
    # built from these parameters on first use
    trainer.policy.astype(dtype)
    trainer.value.astype(dtype)
    try:
        result = trainer.train()
    finally:
        trainer.close()
    assert result.policy.dtype == trainer.value.dtype == dtype
    rl = result.as_scheduler(name="RL")
    scores = compare(
        [rl, *(h() for h in HEURISTICS)], trace, metric="bsld", backfill=False,
        config=repro.EvalConfig(
            n_sequences=SCALE["eval_sequences"],
            sequence_length=SCALE["eval_length"], seed=SCALE["eval_seed"],
        ),
    )
    return (
        [float(r) for r in result.reward_curve()],
        {name: float(score) for name, score in scores.items()},
    )


def test_float32_learner_matches_float64_at_reduced_scale():
    trace = repro.load_trace(SCALE["trace"], n_jobs=SCALE["n_jobs"], seed=0)
    runs = {
        name: [train(trace, seed, dtype) for seed in SEEDS]
        for name, dtype in (("float32", np.float32), ("float64", np.float64))
    }
    curves = {name: np.array([c for c, _ in rs]) for name, rs in runs.items()}
    bsld = {name: [b for _, b in rs] for name, rs in runs.items()}

    seed_spread = curves["float64"].max(axis=0) - curves["float64"].min(axis=0)
    dtype_gap = np.abs(curves["float32"] - curves["float64"])
    inside = (
        (curves["float32"] >= curves["float64"].min(axis=0))
        & (curves["float32"] <= curves["float64"].max(axis=0))
    )
    verdicts = {
        name: [
            {h.name: "better" if b["RL"] < b[h.name] else "worse"
             for h in HEURISTICS}
            for b in per_seed
        ]
        for name, per_seed in bsld.items()
    }
    report = {
        "scale": SCALE,
        "seeds": list(SEEDS),
        "mean_reward_per_epoch": {k: v.tolist() for k, v in curves.items()},
        "float64_seed_spread_per_epoch": seed_spread.tolist(),
        "dtype_gap_per_epoch": dtype_gap.tolist(),
        "mean_float64_seed_spread": float(seed_spread.mean()),
        "mean_dtype_gap_per_seed": dtype_gap.mean(axis=1).tolist(),
        "float32_points_inside_float64_envelope": float(inside.mean()),
        "bsld": bsld,
        "rl_vs_heuristic": verdicts,
        "criterion": {
            "curves_inside_seed_spread": bool(
                (dtype_gap.mean(axis=1) <= seed_spread.mean()).all()
            ),
            "same_verdict_signs": verdicts["float32"] == verdicts["float64"],
        },
    }
    RESULTS.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({k: report[k] for k in (
        "mean_float64_seed_spread", "mean_dtype_gap_per_seed",
        "float32_points_inside_float64_envelope", "bsld", "criterion",
    )}, indent=1))
    assert all(report["criterion"].values()), report["criterion"]
