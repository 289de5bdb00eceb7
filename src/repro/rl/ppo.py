"""Proximal Policy Optimization (clip variant) — the paper's training
algorithm, "based on the PPO algorithm from OpenAI Spinning Up".

Actor-critic: the policy network scores visible jobs (any Table IV
architecture), the value network predicts the expected sequence reward.
Per epoch, ``train_pi_iters`` clipped-surrogate steps update the policy
(with early stopping once the sampled KL divergence exceeds
``1.5 × target_kl``) and ``train_v_iters`` regression steps fit the value
function — the SpinningUp procedure.  Updates run on random minibatches so
peak memory stays bounded on full paper-scale batches (25,600 steps).

The update has the dtype of the networks it is given (float32 as created,
:mod:`repro.nn.layers`): observation rows arrive float32, the plans cast
the buffer's float64 columns once, and nothing here names a dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from repro.config import PPOConfig
from repro.nn import (
    Adam,
    Module,
    RaggedRows,
    Tensor,
    clip_grad_norm,
    csr_gather,
    csr_indptr,
    gather_rows,
    no_grad,
    sample_action_batch,
    segment_log_softmax,
    segment_rectangle,
    segment_sum,
)
from repro.telemetry import core as _telemetry

__all__ = ["PPOAgent", "UpdateStats"]

#: glibc serves a request from retained heap only below a threshold that
#: ratchets up to the largest mmapped block it has seen *freed* (32 MiB
#: at most), and trims idle heap beyond twice that.  An update iteration
#: frees and re-allocates its activations and gradients (a few MB at 768
#: steps, 17-34 MB at 8 192 in float64, half that in the float32 the
#: networks are created in), so with nothing larger in the allocator's
#: history every iteration page-faults its working set back in — and
#: "larger" used to be whatever garbage came before (the padded
#: observation blocks until PR 19; CHANGES.md has the faults and times).
#: Freeing one block just under the cap sets the threshold to its maximum
#: whatever the history; no page of the block is touched.
_HEAP_KEEP_BYTES = 31 << 20


@dataclass(frozen=True)
class UpdateStats:
    """Diagnostics of one epoch update.

    ``kl`` is the mean sampled KL across the minibatch iterations this
    epoch actually ran; ``kl_last`` keeps the final iteration's value
    (what the early-stop check saw last).
    """

    policy_loss: float
    value_loss: float
    kl: float
    entropy: float
    pi_iters_run: int
    early_stopped: bool
    kl_last: float = float("nan")


def _take(array: np.ndarray, idx: np.ndarray | None) -> np.ndarray:
    """Rows ``idx`` of ``array``; ``None`` means every row, uncopied."""
    return array if idx is None else array[idx]


def _policy_plan(
    data: dict[str, np.ndarray],
    dtype: np.dtype,
    idx: np.ndarray | None,
) -> tuple:
    """What one policy-loss evaluation reads of steps ``idx`` of ``data``:
    ``(inputs, old_log_probs, advantages)``, the arguments of
    :func:`_policy_terms` after the policy.

    The stored batch is ragged (``rows`` / ``counts``), and that is what
    the policy is handed: ``(rows, counts, indptr, action_pos)`` — the
    job rows of the minibatch as stored, how many each observation owns,
    the observation segment splits, and each chosen action's position in
    the flat vector.  The buffer keeps its log-probs and advantages
    float64; they are cast here, once, to the policy's ``dtype``, so the
    loss has the dtype of the network.
    """
    counts = _take(data["counts"], idx)
    actions = _take(data["actions"], idx)
    bad = np.flatnonzero((actions < 0) | (actions >= counts))
    if len(bad):
        raise ValueError(f"actions at rows {bad.tolist()} are masked out")
    rows = data["rows"]
    if idx is not None:
        starts = np.cumsum(data["counts"]) - data["counts"]
        rows = rows[csr_gather(starts[idx], counts)]
    indptr = csr_indptr(counts)
    return (
        (rows, counts, indptr, indptr[:-1] + actions),
        _take(data["log_probs"], idx).astype(dtype, copy=False),
        _take(data["advantages"], idx).astype(dtype, copy=False),
    )


def _value_plan(
    windows: RaggedRows,
    returns: np.ndarray,
    dtype: np.dtype,
    idx: np.ndarray | None,
) -> tuple[RaggedRows, np.ndarray]:
    """A value step's plan: the observation windows of steps ``idx`` —
    the epoch's ``windows`` themselves for every step, each bucket's
    drawn members otherwise (:meth:`RaggedRows.take`) — and their
    regression targets, cast from the buffer's float64 to the value
    network's ``dtype``."""
    return (
        windows if idx is None else windows.take(idx),
        _take(returns, idx).astype(dtype, copy=False),
    )


def _policy_terms(
    policy: Module,
    inputs: tuple,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    clip_ratio: float,
) -> tuple[Tensor, Tensor, Tensor]:
    """Per-row PPO-clip terms: ``(surrogate, entropy_rows, logp)``.

    The one forward pass of a policy step, over a :func:`_policy_plan`:
    the policy scores the minibatch's job rows
    (``score_rows_grad(rows, counts)``, one score per visible job) and
    the softmax, the chosen log-probs and the entropy work on that flat
    vector with CSR segment ops — no ``-1e9`` padding anywhere.
    """
    rows, counts, indptr, action_pos = inputs
    scores = policy.score_rows_grad(rows, counts)
    log_probs = segment_log_softmax(scores, indptr)
    logp = gather_rows(log_probs, action_pos)
    ent_rows = -segment_sum(log_probs.exp() * log_probs, indptr)
    ratio = (logp - Tensor(old_log_probs)).exp()
    adv_t = Tensor(advantages)
    clipped = ratio.clip(1.0 - clip_ratio, 1.0 + clip_ratio) * adv_t
    surrogate = (ratio * adv_t).minimum(clipped)
    return surrogate, ent_rows, logp


class PPOAgent:
    """Actor-critic agent with PPO-clip updates.

    The policy is any network behind the ``(rows, counts)`` contract of
    :mod:`repro.nn.networks`: ``score_rows`` to act, ``score_rows_grad``
    to learn, whichever Table IV architecture it is.
    """

    def __init__(
        self,
        policy: Module,
        value: Module,
        config: PPOConfig | None = None,
        seed: int = 0,
    ):
        self.policy = policy
        self.value = value
        self.config = config or PPOConfig()
        self.rng = np.random.default_rng(seed)

    # Optimizers are built on first use: an agent that only acts never
    # allocates Adam state, which allocated just to free at teardown put
    # the next trainer's first update in a slower heap regime.
    @cached_property
    def pi_optimizer(self) -> Adam:
        return Adam(self.policy.parameters(), lr=self.config.pi_lr)

    @cached_property
    def v_optimizer(self) -> Adam:
        return Adam(self.value.parameters(), lr=self.config.vf_lr)

    # ------------------------------------------------------------------
    # acting
    # ------------------------------------------------------------------
    def log_probs_batch(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Masked log-softmax over a wave of ragged observations, as a
        plain ``(n, W)`` array (no grad); slots past an observation's
        ``counts[i]`` jobs carry probability 0.

        The policy scores the wave as it is (``score_rows``, one score
        per visible job), and the softmax runs on a block no wider than
        the wave's longest queue (:func:`segment_rectangle`) with the
        padded window's masked softmax arithmetic operation-for-operation,
        so the log-probabilities equal the window's bit for bit.
        """
        counts = np.asarray(counts)
        if not len(counts) or (counts <= 0).any():
            raise ValueError("every row must have at least one valid action")
        scores = self.policy.score_rows(rows, counts)
        logits = segment_rectangle(scores, counts, self.value.max_obsv_size)
        shift = logits.max(axis=-1, keepdims=True)
        shifted = logits - shift
        log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        return shifted - log_norm

    def act_batch(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        uniforms: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample actions for a wave of observations in one forward pass.

        ``rows`` / ``counts`` are N ragged observations (the visible job
        rows one observation after the other, and how many each owns).
        ``uniforms`` holds one U[0,1) draw per observation (the rollout
        passes each trajectory's next draw from the ones it made up
        front); ``None`` draws N from :attr:`rng`.  Returns ``(actions,
        log_probs)``, both length N: the log-probs are the behaviour
        log-probs the rollout stores.  Value estimates are intentionally
        *not* computed here: an epoch fetches them once, for all its
        steps, via :meth:`value_batch`, which is both faster and
        numerically identical whatever the wave width.
        """
        log_probs = self.log_probs_batch(rows, counts)
        n = len(log_probs)
        if uniforms is None:
            uniforms = self.rng.random(n)
        actions = sample_action_batch(log_probs, uniforms)
        return actions, log_probs[np.arange(n), actions]

    def value_batch(self, windows: RaggedRows) -> np.ndarray:
        """Value estimates for B observations already windowed
        (:meth:`RaggedRows.from_csr` of their ragged rows): ``-> (B,)``.

        The trainer calls it once per epoch, on the windows of the whole
        batch in trajectory order (:meth:`TrajectoryBuffer.get`): one
        forward, whoever collected the episodes and however wide their
        lock-step waves were.
        """
        with no_grad():
            return self.value(windows).numpy().copy()

    def act_greedy_batch(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Deterministic actions for a wave: argmax per observation.

        Kept only as a frozen e2e trace target: nothing in the package
        calls it.  The one greedy decider is
        :class:`~repro.schedulers.RLSchedulerPolicy`, which the trainer's
        validation deploys (:meth:`~repro.rl.trainer.Trainer._validate`).
        """
        return np.argmax(self.log_probs_batch(rows, counts), axis=-1)

    def episode_log_probs(
        self, rows: np.ndarray, counts: np.ndarray, actions: np.ndarray
    ) -> np.ndarray:
        """Log-probs of ``actions`` for one finished episode, scored on
        the batch of its own T observations.

        Kept only as a frozen e2e trace target: nothing in the package
        calls it.  Training stores the log-probs :meth:`act_batch` acted
        with (:func:`~repro.rl.trainer.lockstep_rollout`).
        """
        log_probs = self.log_probs_batch(rows, counts)
        return log_probs[np.arange(len(actions)), np.asarray(actions)]

    # ------------------------------------------------------------------
    # learning
    # ------------------------------------------------------------------
    def update(self, data: dict) -> UpdateStats:
        """One epoch of PPO updates from a :class:`TrajectoryBuffer` dump
        valued by this agent (``buffer.get(agent)``).

        Each iteration steps on a minibatch *plan* — what the step reads
        of its rows, gathered and cast ahead of the forward pass
        (:func:`_policy_plan`, :func:`_value_plan`).  When one minibatch
        covers the batch every iteration reads the same rows, so the plan
        is built once and reused; otherwise each iteration builds its own
        from the stored batch and a fresh random index vector.  Plans live
        only inside this call.  The value plans come from the batch's
        ``windows`` (the epoch's observations bucketed once, which
        :meth:`TrajectoryBuffer.get` adds), never from a fresh bucketing.
        """
        cfg = self.config
        n = len(data["actions"])
        if n == 0:
            raise ValueError("empty update batch")
        np.empty(_HEAP_KEEP_BYTES, dtype=np.uint8)  # see _HEAP_KEEP_BYTES

        # KL rides as a gauge (clip-frac is recorded inside _policy_step,
        # where the ratios exist).
        reg = _telemetry.current()
        kl_gauge = reg.gauge("update.kl")

        build = partial(_policy_plan, data, self.policy.dtype)
        pi_losses, kls, entropies = [], [], []
        early_stopped = False
        for plan in self._plans(n, cfg.train_pi_iters, build):
            with reg.span("update.policy_iter"):
                loss_pi, kl, ent = self._policy_step(plan)
            kl_gauge.set(kl)
            pi_losses.append(loss_pi)
            kls.append(kl)
            entropies.append(ent)
            if kl > 1.5 * cfg.target_kl:
                early_stopped = True
                break

        build = partial(
            _value_plan, data["windows"], data["returns"], self.value.dtype
        )
        v_losses = []
        for plan in self._plans(n, cfg.train_v_iters, build):
            with reg.span("update.value_iter"):
                v_losses.append(self._value_step(plan))

        return UpdateStats(
            policy_loss=float(np.mean(pi_losses)),
            value_loss=float(np.mean(v_losses)),
            kl=float(np.mean(kls)),
            entropy=float(np.mean(entropies)),
            pi_iters_run=len(kls),
            early_stopped=early_stopped,
            kl_last=float(kls[-1]),
        )

    def _plans(self, n: int, iters: int, build):
        """Yield ``iters`` minibatch plans over a batch of ``n`` rows.

        ``build(idx)`` plans the rows ``idx``; ``None`` stands for every
        row in stored order and draws nothing from the agent's generator.
        """
        batch_size = self.config.minibatch_size
        if batch_size >= n:
            plan = build(None)
            for _ in range(iters):
                yield plan
        else:
            for _ in range(iters):
                yield build(self.rng.choice(n, size=batch_size, replace=False))

    def _policy_step(self, plan: tuple) -> tuple[float, float, float]:
        cfg = self.config
        inputs, old_log_probs, advantages = plan
        surrogate, ent_rows, logp = _policy_terms(
            self.policy, inputs, old_log_probs, advantages, cfg.clip_ratio
        )
        loss = -surrogate.mean()
        ent = ent_rows.mean()
        if cfg.entropy_coef > 0:
            loss = loss - cfg.entropy_coef * ent

        self.pi_optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(self.pi_optimizer.params, cfg.max_grad_norm)
        self.pi_optimizer.step()

        reg = _telemetry.current()
        if reg.enabled:
            # Fraction of samples whose importance ratio hit the clip
            # boundary — pure read of already-computed values, so the
            # update itself is bit-identical with telemetry off.
            ratio = np.exp(logp.numpy() - old_log_probs)
            clip_frac = float(np.mean(np.abs(ratio - 1.0) > cfg.clip_ratio))
            reg.gauge("update.clip_frac").set(clip_frac)

        kl = float(np.mean(old_log_probs - logp.numpy()))
        return float(loss.item()), kl, float(ent.item())

    def _value_step(self, plan: tuple[RaggedRows, np.ndarray]) -> float:
        obs, returns = plan
        loss = ((self.value(obs) - Tensor(returns)) ** 2.0).mean()
        self.v_optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(self.v_optimizer.params, self.config.max_grad_norm)
        self.v_optimizer.step()
        return float(loss.item())
