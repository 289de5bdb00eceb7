"""Table VII at the scenario level, driven by the study pipeline.

The classic Table VII bench (``test_table7_generalization.py``) crosses
*traces* with hand-rolled model caching; this one runs the actual
:mod:`repro.study` subsystem over *scenarios* — including a
memory-constrained one, so cross-feature-layout deployment (memory-blind
and memory-neutral retargets) is part of the measured protocol.  The
zoo lives under ``benchmarks/.cache/`` next to the other trained models,
so re-runs at the same scale skip training.

Paper claim under test: a learned RL-X model applied to setting Y "will
be no worse than using an inappropriate heuristic scheduler".
"""

from repro.config import StudyConfig, TrainConfig
from repro.study import generalization_matrix

from ._helpers import CACHE_DIR, S, SCALE, print_table

#: unconstrained small/default clusters plus the memory-constrained
#: variant — cross-layout retargets occur in both directions
SCENARIOS = ("lublin-64", "lublin-256", "lublin-256-mem")
HEURISTICS = ("FCFS", "WFP3", "UNICEP", "SJF", "F1")


def test_table7_scenario_generalization_study(benchmark):
    config = StudyConfig(
        scenarios=SCENARIOS,
        zoo_dir=str(CACHE_DIR / f"study_zoo_{SCALE}"),
        heuristics=HEURISTICS,
        train=TrainConfig(
            epochs=S.train_epochs,
            trajectories_per_epoch=S.train_trajectories,
            trajectory_length=S.train_length,
        ),
        max_obsv_size=S.max_obsv_size,
        n_jobs=S.n_jobs,
        n_sequences=S.eval_sequences,
        sequence_length=S.eval_length,
    )
    doc = benchmark.pedantic(
        lambda: generalization_matrix(config), rounds=1, iterations=1
    )

    results = doc["results"]
    columns = list(next(iter(results.values())))
    rows = [
        [name] + [f"{row[c]['mean']:.1f}" for c in columns]
        for name, row in results.items()
    ]
    print_table("Table VII (scenarios): RL-X applied to scenario Y (bsld)",
                ["scenario"] + columns, rows)

    policy_names = list(doc["policies"])
    for scen_name, row in results.items():
        worst_heur = max(row[h]["mean"] for h in HEURISTICS)
        for policy in policy_names:
            # Stability low-bound, as in the trace-level bench: at tiny
            # training scale allow 2.5x the worst heuristic.
            assert row[policy]["mean"] <= 2.5 * worst_heur, (
                f"{policy} catastrophic on {scen_name}: "
                f"{row[policy]['mean']:.1f} vs worst heuristic "
                f"{worst_heur:.1f}"
            )
    # Cross-layout deploys must be classified, not silent.
    compat = {p: info["compat"] for p, info in doc["policies"].items()}
    assert compat["RL-lublin-64"]["lublin-256-mem"] == "memory-blind"
    assert compat["RL-lublin-256-mem"]["lublin-64"] == "memory-neutral"
    assert compat["RL-lublin-64"]["lublin-64"] == "native"
