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
from typing import Sequence

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
    log_prob_of,
    masked_log_softmax,
    no_grad,
    sample_action_batch,
    segment_log_softmax,
    segment_rectangle,
    segment_sum,
    window_extents,
)
from repro.sim.env import pad_observations
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


def _row_scorer(policy: Module):
    """The policy's gradient-capable per-row scorer, or ``None`` — the
    whole update-path choice: a policy that scores jobs independently
    (the kernel preset) takes the sparse update over valid rows; one that
    scores them jointly (MLP / LeNet) has no per-row twin and takes the
    dense update over the padded block, the oracle sparse is pinned to."""
    scorer = getattr(policy, "score_rows_grad", None)
    return scorer if callable(scorer) else None


def _policy_plan(
    data: dict[str, np.ndarray],
    sparse: bool,
    max_obsv_size: int,
    dtype: np.dtype,
    idx: np.ndarray | None,
) -> tuple:
    """What one policy-loss evaluation reads of steps ``idx`` of ``data``:
    ``(inputs, old_log_probs, advantages)``, the arguments of
    :func:`_policy_terms` after the policy.

    The stored batch is ragged (``rows`` / ``counts``), which is what the
    sparse update forwards: ``(rows, indptr, action_pos)`` — the job rows
    of the minibatch as stored, the observation segment splits, and each
    chosen action's position in the flat vector.  The dense update pads
    the same rows to the ``max_obsv_size`` window at its input and
    forwards ``(obs, masks, actions)``.  The buffer keeps its log-probs
    and advantages float64; they are cast here, once, to the policy's
    ``dtype``, so the loss has the dtype of the network.
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
    if sparse:
        indptr = csr_indptr(counts)
        inputs = (rows, indptr, indptr[:-1] + actions)
    else:
        inputs = (*pad_observations(rows, counts, max_obsv_size), actions)
    return (
        inputs,
        _take(data["log_probs"], idx).astype(dtype, copy=False),
        _take(data["advantages"], idx).astype(dtype, copy=False),
    )


def _value_plan(
    data: dict[str, np.ndarray],
    max_obsv_size: int,
    dtype: np.dtype,
    extents: np.ndarray,
    idx: np.ndarray | None,
) -> tuple[RaggedRows, np.ndarray]:
    """A value step's plan: the observation windows of steps ``idx``
    bucketed straight from the ragged batch (non-zero prefixes only, no
    dense copy) and their regression targets, cast from the buffer's
    float64 to the value network's ``dtype``."""
    ragged = RaggedRows.from_csr(
        data["rows"], data["counts"], max_obsv_size, select=idx, extents=extents
    )
    return ragged, _take(data["returns"], idx).astype(dtype, copy=False)


def _policy_terms(
    policy: Module,
    inputs: tuple,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    clip_ratio: float,
) -> tuple[Tensor, Tensor, Tensor]:
    """Per-row PPO-clip terms: ``(surrogate, entropy_rows, logp)``.

    The one forward pass both update paths share, over a
    :func:`_policy_plan` built for the same policy.  Dense scores the
    padded ``(B, M)`` block and masks; sparse forwards only the valid
    rows through the policy's :func:`_row_scorer` and works on the flat
    vector with CSR segment ops — no ``-1e9`` padding anywhere.  Both
    produce the same values to round-off.
    """
    scorer = _row_scorer(policy)
    if scorer is not None:
        rows, indptr, action_pos = inputs
        scores = scorer(rows)
        log_probs = segment_log_softmax(scores, indptr)
        logp = gather_rows(log_probs, action_pos)
        ent_rows = -segment_sum(log_probs.exp() * log_probs, indptr)
    else:
        obs, masks, actions = inputs
        logits = policy(obs, masks)
        log_probs = masked_log_softmax(logits, masks)
        logp = log_prob_of(log_probs, actions)
        ent_rows = -(log_probs.exp() * log_probs).sum(axis=-1)
    ratio = (logp - Tensor(old_log_probs)).exp()
    adv_t = Tensor(advantages)
    clipped = ratio.clip(1.0 - clip_ratio, 1.0 + clip_ratio) * adv_t
    surrogate = (ratio * adv_t).minimum(clipped)
    return surrogate, ent_rows, logp


class PPOAgent:
    """Actor-critic agent with PPO-clip updates.

    The policy step is the segment-batched sparse update when the policy
    exposes ``score_rows_grad`` (:class:`KernelPolicy`) and the dense one
    otherwise (:func:`_row_scorer`).
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

        Policies that score jobs independently (:class:`KernelPolicy`
        exposes ``score_rows``) take the wave as it is: the job rows go
        through the network, and the softmax runs on a block no wider
        than the wave's longest queue (:func:`segment_rectangle`) with
        the arithmetic of :func:`masked_log_softmax`
        operation-for-operation, so the log-probabilities equal the
        padded-window ones bit for bit.  Policies that read the whole
        window (MLP / LeNet) get it padded here, at their input.
        """
        counts = np.asarray(counts)
        if not len(counts) or (counts <= 0).any():
            raise ValueError("every row must have at least one valid action")
        score_rows = getattr(self.policy, "score_rows", None)
        if score_rows is None:
            obs, masks = pad_observations(rows, counts, self.value.max_obsv_size)
            with no_grad():
                logits = self.policy(obs, masks)
                return masked_log_softmax(logits, masks).numpy()
        with no_grad():
            scores = score_rows(rows)
        logits = segment_rectangle(scores, counts, self.value.max_obsv_size)
        shift = logits.max(axis=-1, keepdims=True)
        shifted = logits - shift
        log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        return shifted - log_norm

    def act_batch(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        rngs: "Sequence[np.random.Generator] | np.random.Generator | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample actions for a wave of observations in one forward pass.

        ``rows`` / ``counts`` are N ragged observations (the visible job
        rows one observation after the other, and how many each owns).
        ``rngs`` is either one generator shared by all observations or a
        sequence of N per-observation generators (the collectors pass
        per-trajectory streams).  Returns ``(actions, log_probs)``, both
        length N.  Value estimates are intentionally *not* computed here
        — fetch them once per finished episode via :meth:`value_batch`,
        which is both faster and numerically identical whatever the wave
        width.
        """
        log_probs = self.log_probs_batch(rows, counts)
        n = len(log_probs)
        if rngs is None:
            rngs = self.rng
        if isinstance(rngs, np.random.Generator):
            uniforms = rngs.random(n)
        else:
            # One draw per row from that row's own stream, in row order —
            # a trajectory's sample depends only on its own generator.
            uniforms = np.array([rng.random() for rng in rngs])
        actions = sample_action_batch(log_probs, uniforms)
        return actions, log_probs[np.arange(n), actions]

    def value_batch(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Value estimates for B ragged observations: ``-> (B,)``."""
        windows = RaggedRows.from_csr(rows, counts, self.value.max_obsv_size)
        with no_grad():
            return self.value(windows).numpy().copy()

    def act_greedy_batch(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Deterministic actions for a wave: argmax per observation."""
        return np.argmax(self.log_probs_batch(rows, counts), axis=-1)

    def episode_log_probs(
        self, rows: np.ndarray, counts: np.ndarray, actions: np.ndarray
    ) -> np.ndarray:
        """Canonical behaviour log-probs for one finished episode.

        ``act_batch``'s per-step forwards batch *across environments*, and
        BLAS kernels are not bit-reproducible across batch shapes — the
        same observation scored inside different batches can differ in the
        last ulp.  That never flips a sampled action, but it would leak
        batch-layout noise into the stored log-probs.  Re-deriving them
        from the episode's own T observations in one batch (same rows in
        the same order whether the episode was collected sequentially or
        vectorised) makes the recorded trajectory data exactly
        collection-order-independent.
        """
        log_probs = self.log_probs_batch(rows, counts)
        return log_probs[np.arange(len(actions)), np.asarray(actions)]

    # ------------------------------------------------------------------
    # learning
    # ------------------------------------------------------------------
    def update(self, data: dict[str, np.ndarray]) -> UpdateStats:
        """One epoch of PPO updates from a :class:`TrajectoryBuffer` dump.

        Each iteration steps on a minibatch *plan* — what the step reads
        of its rows, gathered and cast ahead of the forward pass
        (:func:`_policy_plan`, :func:`_value_plan`).  When one minibatch
        covers the batch every iteration reads the same rows, so the plan
        is built once and reused; otherwise each iteration builds its own
        from the stored batch and a fresh random index vector.  Plans live
        only inside this call.
        """
        cfg = self.config
        n = len(data["actions"])
        if n == 0:
            raise ValueError("empty update batch")
        np.empty(_HEAP_KEEP_BYTES, dtype=np.uint8)  # see _HEAP_KEEP_BYTES

        # Per-iteration spans carry the update path in the name so dense
        # and sparse timings stay distinguishable in one trace; KL rides
        # as a gauge (clip-frac is recorded inside _policy_step, where the
        # ratios exist).
        reg = _telemetry.current()
        sparse = _row_scorer(self.policy) is not None
        pi_span = f"update.policy_iter.{'sparse' if sparse else 'dense'}"
        kl_gauge = reg.gauge("update.kl")

        max_obsv_size = self.value.max_obsv_size
        build = partial(
            _policy_plan, data, sparse, max_obsv_size, self.policy.dtype
        )
        pi_losses, kls, entropies = [], [], []
        early_stopped = False
        for plan in self._plans(n, cfg.train_pi_iters, build):
            with reg.span(pi_span):
                loss_pi, kl, ent = self._policy_step(plan)
            kl_gauge.set(kl)
            pi_losses.append(loss_pi)
            kls.append(kl)
            entropies.append(ent)
            if kl > 1.5 * cfg.target_kl:
                early_stopped = True
                break

        # one pass over the stored rows finds every window's non-zero
        # extent; each value plan buckets its observations by it
        build = partial(
            _value_plan, data, max_obsv_size, self.value.dtype,
            window_extents(data["rows"], data["counts"]),
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
