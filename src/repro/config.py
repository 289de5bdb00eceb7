"""Every tunable of the reproduction, with the paper's defaults.

Grouped into frozen dataclasses so experiment code can't mutate shared
state.  Values quoted from the paper:

* ``MAX_OBSV_SIZE = 128`` observable jobs (§IV-B3);
* 100 trajectories/epoch, 256 jobs per trajectory, 80 update iterations
  per epoch, learning rate 1e-3 (§V-A);
* test sequences of 1024 jobs, 10 repetitions (§V-C2).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "EnvConfig",
    "PPOConfig",
    "TrainConfig",
    "EvalConfig",
    "RuntimeConfig",
    "ScenarioConfig",
    "StudyConfig",
    "TelemetryConfig",
    "TenantConfig",
    "ServeConfig",
    "FeatureLayoutError",
]


class FeatureLayoutError(ValueError):
    """A policy's observation layout cannot be deployed as requested.

    Raised either at :class:`repro.schedulers.RLSchedulerPolicy`
    construction time, when the policy network's input width disagrees
    with the :class:`EnvConfig` it is asked to observe through (the error
    that would otherwise surface as a shape mismatch deep inside the
    first ``select()``), or by ``retarget(..., on_mismatch="fail")`` when
    the policy's feature layout differs from the target scenario's native
    one and the caller asked for strict semantics.
    """


@dataclass(frozen=True)
class ScenarioConfig:
    """Pointer to a registered scenario (see :mod:`repro.scenarios`).

    Scenarios bundle a workload, a cluster and an evaluation protocol
    behind one name; this config selects one and optionally overrides the
    workload size/seed.  Resolution happens in :mod:`repro.scenarios`
    (``get_scenario(config.name)``) — the config itself is plain data so
    it can live inside the frozen train/eval configs and pickle cleanly
    to runtime workers.
    """

    name: str = "lublin-256"
    #: override the scenario workload's job count (None = scenario default)
    n_jobs: int | None = None
    #: override the scenario workload's generation seed (None = default)
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.n_jobs is not None and self.n_jobs <= 0:
            raise ValueError(f"n_jobs must be positive, got {self.n_jobs}")


@dataclass(frozen=True)
class RuntimeConfig:
    """Where independent simulations execute (see :mod:`repro.runtime`).

    ``backend="serial"`` runs everything in-process; ``"process"`` fans
    evaluation cells out over ``workers`` persistent ``multiprocessing``
    workers, which exchange pickles over pipes.  Both produce
    bit-identical results for the same seeds — the backend is a pure
    throughput knob, pinned by the runtime golden tests.  Training does
    not take one: it rolls out in the trainer's own process.
    """

    #: accepted execution backends
    BACKENDS = ("serial", "process")

    backend: str = "serial"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.backend not in self.BACKENDS:
            raise ValueError(
                f"backend must be one of {self.BACKENDS}, got {self.backend!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def from_workers(cls, workers: int) -> "RuntimeConfig":
        """The CLI convention: ``--workers N`` means a process pool for
        N > 1 and the serial backend for N == 1."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        backend = "process" if workers > 1 else "serial"
        return cls(backend=backend, workers=workers)


@dataclass(frozen=True)
class TelemetryConfig:
    """Observability knobs shared by train / evaluate / study runs.

    Telemetry is purely observational: enabling it changes no result bit
    (pinned by golden tests).  ``path`` selects the ``repro/telemetry@1``
    JSONL sink (see :mod:`repro.telemetry.sink`); ``summary`` logs the
    end-of-run summary tree through the ``repro.telemetry`` logger.
    Enable telemetry *before* runtime backends start — pool workers
    inherit the enabled flag at spawn, which the config-driven entry
    points (CLI ``--telemetry``) guarantee by construction.
    """

    enabled: bool = False
    #: JSONL sink path (None = record in memory only)
    path: str | None = None
    #: log the end-of-run summary tree
    summary: bool = True

    def __post_init__(self) -> None:
        if self.path is not None and not self.path:
            raise ValueError("telemetry path must be non-empty (or None)")


@dataclass(frozen=True)
class EnvConfig:
    """SchedGym observation / action space parameters."""

    max_obsv_size: int = 128      # MAX_OBSV_SIZE: visible job slots
    job_features: int = 7         # features per visible job (see env.py)
    backfill: bool = False
    wait_scale: float = 86_400.0      # saturating scale for wait-time feature
    runtime_scale: float = 5 * 86_400.0  # log-normalisation cap for runtimes
    #: append per-resource memory columns (7: job memory-demand fraction,
    #: 8: free-memory fraction) for memory-constrained scenarios; the
    #: default 7-feature layout is byte-identical with this off
    memory_features: bool = False

    #: observation columns filled only when ``memory_features`` is on
    MEM_DEMAND_COL = 7
    MEM_FREE_COL = 8

    def __post_init__(self) -> None:
        if self.max_obsv_size <= 0:
            raise ValueError("max_obsv_size must be positive")
        if self.job_features < 7:
            raise ValueError(
                "job_features must be >= 7 (the encoder writes columns 0-6), "
                f"got {self.job_features}"
            )
        if self.memory_features and self.job_features < 9:
            raise ValueError(
                "memory_features needs job_features >= 9 (columns 7 and 8 "
                f"carry the per-resource demands), got {self.job_features}"
            )

    @property
    def observation_shape(self) -> tuple[int, int]:
        return (self.max_obsv_size, self.job_features)

    def feature_compat(self, target: "EnvConfig") -> str:
        """How a policy observing through *this* layout relates to an
        environment whose native layout is ``target``.

        A deployed policy always builds observations through its own
        :class:`EnvConfig`, so any combination *runs*; this classifies
        what the policy can and cannot see so callers implement explicit
        adapt-or-fail semantics instead of silently degrading:

        ``"native"``
            same per-resource layout — nothing is lost;
        ``"memory-blind"``
            the target carries memory features this policy was not
            trained with: it schedules a memory-constrained cluster
            without seeing memory demands or availability;
        ``"memory-neutral"``
            this policy carries memory features the target lacks: on an
            unconstrained cluster its memory columns read the neutral
            values (zero demand fraction, all memory free), which are
            valid in-distribution inputs.
        """
        if self.memory_features == target.memory_features:
            return "native"
        if target.memory_features:
            return "memory-blind"
        return "memory-neutral"


@dataclass(frozen=True)
class PPOConfig:
    """PPO-clip hyper-parameters (SpinningUp defaults the paper used)."""

    clip_ratio: float = 0.2
    pi_lr: float = 1e-3           # paper: "the learning rate is 1e-3"
    vf_lr: float = 1e-3
    train_pi_iters: int = 80      # paper: "80 iterations to update"
    train_v_iters: int = 80
    gamma: float = 1.0            # episodic task with terminal reward
    lam: float = 0.97             # GAE-lambda
    target_kl: float = 0.01       # early-stop threshold
    entropy_coef: float = 0.0
    max_grad_norm: float = 10.0
    minibatch_size: int = 4096    # bounds peak memory of each update pass

    def __post_init__(self) -> None:
        if not 0 < self.clip_ratio < 1:
            raise ValueError("clip_ratio must be in (0, 1)")
        if not 0 <= self.gamma <= 1 or not 0 <= self.lam <= 1:
            raise ValueError("gamma and lam must be in [0, 1]")
        # An update needs at least one iteration of each kind on a
        # non-empty minibatch; rejecting here fails before the rollout
        # instead of deep inside the update after it.
        for name in ("train_pi_iters", "train_v_iters", "minibatch_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("pi_lr", "vf_lr", "max_grad_norm", "target_kl"):
            value = getattr(self, name)
            if not value > 0:  # also rejects NaN
                raise ValueError(f"{name} must be > 0, got {value}")
        if not self.entropy_coef >= 0:
            raise ValueError(f"entropy_coef must be >= 0, got {self.entropy_coef}")


@dataclass(frozen=True)
class TrainConfig:
    """Epoch-level training protocol (§V-A)."""

    epochs: int = 100
    trajectories_per_epoch: int = 100
    trajectory_length: int = 256  # jobs per training sequence
    seed: int = 0
    use_trajectory_filter: bool = False
    filter_probe_samples: int = 200   # SJF probes to build the Fig. 7 distribution
    filter_phase1_fraction: float = 0.6  # fraction of epochs in filtered phase
    n_envs: int = 16              # environments stepped in lock-step
    #: train inside a named scenario (workload + cluster); None = caller
    #: supplies the trace and cluster explicitly
    scenario: ScenarioConfig | None = None
    #: observability (spans/metrics + optional JSONL sink); None = off
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        if min(self.epochs, self.trajectories_per_epoch, self.trajectory_length) <= 0:
            raise ValueError("training sizes must be positive")
        if self.n_envs <= 0:
            raise ValueError("n_envs must be positive")
        if self.scenario is not None and not isinstance(self.scenario, ScenarioConfig):
            raise TypeError("scenario must be a ScenarioConfig (or None)")
        if self.telemetry is not None and not isinstance(self.telemetry, TelemetryConfig):
            raise TypeError("telemetry must be a TelemetryConfig (or None)")


@dataclass(frozen=True)
class EvalConfig:
    """Test-time protocol: 10 sequences of 1024 jobs (§V-C2)."""

    n_sequences: int = 10
    sequence_length: int = 1024
    seed: int = 42
    runtime: RuntimeConfig = RuntimeConfig()  # where sequence runs execute
    #: evaluate inside a named scenario (workload + cluster + protocol);
    #: None = caller supplies the trace explicitly
    scenario: ScenarioConfig | None = None
    #: observability (spans/metrics + optional JSONL sink); None = off
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        if self.n_sequences <= 0 or self.sequence_length <= 0:
            raise ValueError("n_sequences and sequence_length must be positive")
        if not isinstance(self.runtime, RuntimeConfig):
            raise TypeError("runtime must be a RuntimeConfig")
        if self.scenario is not None and not isinstance(self.scenario, ScenarioConfig):
            raise TypeError("scenario must be a ScenarioConfig (or None)")
        if self.telemetry is not None and not isinstance(self.telemetry, TelemetryConfig):
            raise TypeError("telemetry must be a TelemetryConfig (or None)")


@dataclass(frozen=True)
class TenantConfig:
    """One logical cluster multiplexed by the serving daemon.

    Each tenant gets an independent
    :class:`~repro.sim.core.OnlineSchedulingEngine` (own cluster, own
    pending queue, own simulated clock) plus its own decision policy and
    telemetry labels.  ``scheduler`` is a heuristic name from
    :data:`repro.schedulers.ALL_HEURISTICS`; ``policy_path`` instead loads
    a trained :class:`~repro.schedulers.RLSchedulerPolicy` ``.npz`` (and
    takes precedence).  Like :class:`ScenarioConfig`, this is plain data —
    resolution happens in :mod:`repro.serve`.
    """

    #: accepted backfilling modes (mirrors ``EngineCore.BACKFILL_MODES``)
    BACKFILL_MODES = (False, True, "easy", "conservative")

    name: str = "default"
    scheduler: str = "FCFS"
    n_procs: int = 256
    #: per-processor memory capacity (None = memory-unconstrained)
    memory: float | None = None
    backfill: bool | str = False
    #: path to a trained policy ``.npz``; overrides ``scheduler``
    policy_path: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.n_procs <= 0:
            raise ValueError(f"n_procs must be positive, got {self.n_procs}")
        if self.memory is not None and self.memory <= 0:
            raise ValueError(f"memory must be positive, got {self.memory}")
        if self.backfill not in self.BACKFILL_MODES:
            raise ValueError(
                f"backfill must be one of {self.BACKFILL_MODES}, "
                f"got {self.backfill!r}"
            )
        if not self.scheduler and self.policy_path is None:
            raise ValueError("tenant needs a scheduler name or a policy_path")


@dataclass(frozen=True)
class ServeConfig:
    """The scheduler-as-a-service daemon (see :mod:`repro.serve`).

    One process (one thread) listens on ``host:port`` speaking the versioned
    JSON line protocol and multiplexes every configured tenant.  ``port``
    0 binds an ephemeral port (the daemon prints the bound address on
    stdout).  ``completed_history`` caps the finished-job records each
    tenant retains for ``status`` queries — the serving path must hold
    memory proportional to the live job set, not the lifetime stream.
    """

    host: str = "127.0.0.1"
    port: int = 7653
    tenants: tuple = (TenantConfig(),)
    #: observability (spans/metrics + optional JSONL sink); None = off
    telemetry: TelemetryConfig | None = None
    #: finished-job records retained per tenant for ``status`` queries
    completed_history: int = 10_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not 0 <= self.port <= 65_535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if not self.host:
            raise ValueError("host must be non-empty")
        if not self.tenants:
            raise ValueError("serve needs at least one tenant")
        for tenant in self.tenants:
            if not isinstance(tenant, TenantConfig):
                raise TypeError("tenants must be TenantConfig instances")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        if self.completed_history < 0:
            raise ValueError(
                f"completed_history must be >= 0, got {self.completed_history}"
            )
        if self.telemetry is not None and not isinstance(self.telemetry, TelemetryConfig):
            raise TypeError("telemetry must be a TelemetryConfig (or None)")


@dataclass(frozen=True)
class StudyConfig:
    """The cross-scenario generalization study (paper Table VII).

    One policy is trained per scenario (checkpointed into ``zoo_dir``;
    scenarios whose ``<name>.npz`` already exists skip training), then
    every trained policy is evaluated against every scenario alongside
    the heuristic baselines — see :mod:`repro.study`.

    ``train`` is the protocol every per-scenario
    :class:`~repro.rl.trainer.Trainer` runs (``train.scenario`` is filled
    in per scenario; the default is the CLI's smoke size) — the study
    declares no training knob of its own.  ``runtime`` is where the
    evaluation cells execute; training runs in this process.

    ``None`` for the eval knobs (``n_sequences`` / ``sequence_length``)
    and for ``metric`` means each scenario's own protocol applies;
    ``n_jobs`` shrinks every scenario workload (smoke runs).
    ``on_mismatch`` selects the cross-feature-layout semantics of
    :meth:`repro.schedulers.RLSchedulerPolicy.retarget`: ``"adapt"``
    deploys a policy on scenarios with a different per-resource layout
    (recording the compatibility mode in the artifact), ``"fail"``
    raises :class:`FeatureLayoutError` instead.
    """

    #: accepted cross-layout deployment semantics
    MISMATCH_MODES = ("adapt", "fail")

    scenarios: tuple = ()         # scenario names; () = all registered
    zoo_dir: str = "zoo"
    heuristics: tuple = ("FCFS", "SJF", "WFP3", "UNICEP", "F1")
    policy_preset: str = "kernel"
    metric: str | None = None     # override every scenario's protocol metric
    #: one Trainer per scenario runs this (workloads keep scenario seeds)
    train: TrainConfig = TrainConfig(
        epochs=16, trajectories_per_epoch=14, trajectory_length=64
    )
    max_obsv_size: int = 32
    # -- evaluation knobs (None = scenario protocol) --------------------
    n_jobs: int | None = None
    n_sequences: int | None = None
    sequence_length: int | None = None
    on_mismatch: str = "adapt"
    runtime: RuntimeConfig = RuntimeConfig()
    #: observability (spans/metrics + optional JSONL sink); None = off
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "heuristics", tuple(self.heuristics))
        if not self.zoo_dir:
            raise ValueError("zoo_dir must be non-empty")
        if not isinstance(self.train, TrainConfig):
            raise TypeError("train must be a TrainConfig")
        if self.max_obsv_size <= 0:
            raise ValueError("max_obsv_size must be positive")
        for name, value in (("n_jobs", self.n_jobs),
                            ("n_sequences", self.n_sequences),
                            ("sequence_length", self.sequence_length)):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (or None), got {value}")
        if self.on_mismatch not in self.MISMATCH_MODES:
            raise ValueError(
                f"on_mismatch must be one of {self.MISMATCH_MODES}, "
                f"got {self.on_mismatch!r}"
            )
        if not isinstance(self.runtime, RuntimeConfig):
            raise TypeError("runtime must be a RuntimeConfig")
        if self.telemetry is not None and not isinstance(self.telemetry, TelemetryConfig):
            raise TypeError("telemetry must be a TelemetryConfig (or None)")
