"""Policy and value networks (paper §IV-B, Table IV).

All policy networks share one contract: ``score_rows(rows, counts)``
maps a wave of ragged observations (the ``(K, F)`` rows of each queue's
visible jobs, queue after queue, and how many each owns) to ``(K,)``
scores, one per visible job; acting calls it (no grad), the PPO update
its twin ``score_rows_grad``.  ``row_local`` says whether a job's score
depends on its own row alone.  ``forward(obs, mask)`` scores the padded
``(B, M, F)`` window, one score per slot: what the tests'
:func:`~repro.nn.functional.masked_log_softmax` oracles read.

Table IV configurations reproduced here:

=============  ======  ==========================  =====================
name           layers  sizes                       class
=============  ======  ==========================  =====================
MLP v1         3       128, 128, 128               ``MLPPolicy``
MLP v2         3       32, 16, 8                   ``MLPPolicy``
MLP v3         5       32, 32, 32, 32, 32          ``MLPPolicy``
LeNet          6       2x(conv, maxpool), dense    ``LeNetPolicy``
RLScheduler    3       32, 16, 8 (kernel)          ``KernelPolicy``
=============  ======  ==========================  =====================

The kernel network applies a tiny shared MLP to *each job independently*
("like a window"), so its output is equivariant to job reordering and its
parameter count stays under 1,000 (paper §IV-B1) — vs tens of thousands
for the flat MLPs that must learn order-invariance from data.
"""

from __future__ import annotations

import numpy as np

from .layers import Conv2d, Dense, DenseStack, Flatten, Module, max_pool2d
from .ragged import RaggedRows, pad_observations
from .tensor import Tensor, no_grad

__all__ = [
    "KernelPolicy",
    "WindowPolicy",
    "MLPPolicy",
    "LeNetPolicy",
    "ValueMLP",
    "POLICY_PRESETS",
    "make_policy",
]


class KernelPolicy(Module):
    """RLScheduler's kernel-based policy network (Fig. 5).

    A 3-layer perceptron (default 32/16/8) slides over the job axis: the
    same weights score every job from its own feature vector, then the
    scores are soft-maxed across jobs.  Reordering the input jobs reorders
    the output probabilities identically, bit for bit: every product,
    the one-column head included, computes a row from that row alone
    (:func:`repro.nn.tensor.matmul`), so a job scores the same at any
    position of any batch, and twin jobs tie exactly.
    """

    row_local = True

    def __init__(
        self,
        job_features: int,
        hidden: tuple[int, ...] = (32, 16, 8),
        activation: str = "relu",
        seed: int = 0,
    ):
        if not hidden:
            raise ValueError("kernel network needs at least one hidden layer")
        rng = np.random.default_rng(seed)
        dims = (job_features, *hidden)
        layers = [
            Dense(dims[i], dims[i + 1], activation=activation, rng=rng)
            for i in range(len(hidden))
        ]
        layers.append(Dense(dims[-1], 1, activation="identity", rng=rng))
        self.kernel = DenseStack(*layers)
        self.job_features = job_features

    def forward(self, obs: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        obs = np.asarray(obs)
        if obs.ndim == 2:  # single observation (M, F)
            obs = obs[None]
        b, m, f = obs.shape
        if f != self.job_features:
            raise ValueError(f"expected {self.job_features} features per job, got {f}")
        x = Tensor(obs.reshape(b * m, f))
        scores = self.kernel(x)          # (B*M, 1)
        return scores.reshape(b, m)

    def score_rows(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Scores of a wave's job rows, ``(K, F) -> (K,)`` (no grad).

        The kernel scores each job independently, so it reads the rows
        as they are and never ``counts``: K rows instead of the B·M
        padded slots.  Row results are bit-identical to :meth:`forward`
        on the padded batch, and to this call on any other batch holding
        the same row — the rows of many queues can share one call
        (lock-step evaluation).
        """
        with no_grad():
            return self.kernel(Tensor(rows)).numpy().reshape(-1)

    def score_rows_grad(self, rows: np.ndarray, counts: np.ndarray) -> Tensor:
        """Gradient-capable twin of :meth:`score_rows`, ``(K, F) -> (K,)``.

        The PPO update forwards the job rows of a minibatch through this
        entry point and backpropagates through the returned graph — same
        arithmetic as :meth:`forward` on the padded batch, minus the
        padded rows.  The kernel is one tape node that walks the rows in
        L2-sized tiles (:func:`~repro.nn.layers.dense_stack`).
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.job_features:
            raise ValueError(
                f"expected (K, {self.job_features}) rows, got {rows.shape}"
            )
        return self.kernel(Tensor(rows)).reshape(-1)


class WindowPolicy(Module):
    """The Table IV baselines that read the whole ``max_obsv_size``
    window (MLP v1–v3, LeNet), behind the kernel's contract.

    Their first layers mix job slots, so a job's score depends on its
    neighbours, and the BLAS products make even its last bits depend on
    the batch.  They pad the wave at their input
    (:func:`~repro.nn.ragged.pad_observations`), run :meth:`forward` over
    the window and read back the valid slots, in wave order.
    """

    row_local = False

    def score_rows(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Scores of a wave's visible jobs, ``(K,)`` (no grad)."""
        with no_grad():
            return self.score_rows_grad(rows, counts).numpy()

    def score_rows_grad(self, rows: np.ndarray, counts: np.ndarray) -> Tensor:
        """Gradient-capable twin of :meth:`score_rows`."""
        obs, masks = pad_observations(rows, counts, self.max_obsv_size)
        return self.forward(obs, masks)[masks]


class MLPPolicy(WindowPolicy):
    """Flat MLP over the concatenated observation (Table IV v1/v2/v3).

    Order-*sensitive*: the first layer mixes all job slots, so the network
    has to learn queue-order invariance from data — the paper's point.
    """

    def __init__(
        self,
        max_obsv_size: int,
        job_features: int,
        hidden: tuple[int, ...] = (32, 16, 8),
        activation: str = "relu",
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        dims = (max_obsv_size * job_features, *hidden)
        layers = [
            Dense(dims[i], dims[i + 1], activation=activation, rng=rng)
            for i in range(len(hidden))
        ]
        layers.append(Dense(dims[-1], max_obsv_size, activation="identity", rng=rng))
        self.mlp = DenseStack(*layers)
        self.max_obsv_size = max_obsv_size
        self.job_features = job_features

    def forward(self, obs: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        obs = np.asarray(obs)
        if obs.ndim == 2:
            obs = obs[None]
        b = obs.shape[0]
        x = Tensor(obs.reshape(b, -1))
        return self.mlp(x)               # (B, M)


class LeNetPolicy(WindowPolicy):
    """LeNet-style CNN (Table IV row 4): 2×(conv, maxpool) then dense.

    Treats the observation matrix as a 1-channel image.  The pooling and
    the final dense layer mix job positions, which (per the paper) degrades
    training despite the convolutional front-end resembling our kernel.
    """

    def __init__(
        self,
        max_obsv_size: int,
        job_features: int,
        channels: tuple[int, int] = (6, 16),
        dense_size: int = 64,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        self.conv1 = Conv2d(1, channels[0], kernel_size=3, pad=1, rng=rng)
        self.conv2 = Conv2d(channels[0], channels[1], kernel_size=3, pad=1, rng=rng)
        h, w = max_obsv_size, job_features
        h, w = h // 2, w // 2  # after pool1
        h, w = h // 2, w // 2  # after pool2
        if h == 0 or w == 0:
            raise ValueError(
                f"observation {max_obsv_size}x{job_features} too small for LeNet"
            )
        self.flatten = Flatten()
        self.dense1 = Dense(channels[1] * h * w, dense_size, activation="relu", rng=rng)
        self.dense2 = Dense(dense_size, max_obsv_size, activation="identity", rng=rng)
        self.max_obsv_size = max_obsv_size
        self.job_features = job_features

    def forward(self, obs: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        obs = np.asarray(obs)
        if obs.ndim == 2:
            obs = obs[None]
        b, m, f = obs.shape
        x = Tensor(obs.reshape(b, 1, m, f))
        x = max_pool2d(self.conv1(x), 2)
        x = max_pool2d(self.conv2(x), 2)
        x = self.flatten(x)
        x = self.dense1(x)
        return self.dense2(x)


class ValueMLP(Module):
    """The value network (Fig. 6): a 3-layer MLP over the flattened state.

    The first layer multiplies through :class:`RaggedRows`, so a forward
    or backward pass costs what the waiting jobs fill of the window, not
    its padded ``max_obsv_size * job_features`` width; it is its own tape
    node, and the dense tail behind it one more (:class:`DenseStack`).
    """

    def __init__(
        self,
        max_obsv_size: int,
        job_features: int,
        hidden: tuple[int, ...] = (128, 64, 32),
        seed: int = 1,
    ):
        rng = np.random.default_rng(seed)
        dims = (max_obsv_size * job_features, *hidden)
        layers = [
            Dense(dims[i], dims[i + 1], activation="tanh", rng=rng)
            for i in range(len(hidden))
        ]
        layers.append(Dense(dims[-1], 1, activation="identity", rng=rng))
        self.mlp = DenseStack(*layers)
        self.max_obsv_size = max_obsv_size

    def forward(self, obs: "np.ndarray | RaggedRows") -> Tensor:
        """``(B, M, F)`` observations, or their flattened rows already
        bucketed (acting and the PPO update bucket ragged observations
        directly, :meth:`RaggedRows.from_csr`), to ``(B,)`` values."""
        if not isinstance(obs, RaggedRows):
            obs = np.asarray(obs)
            if obs.ndim == 2:
                obs = obs[None]
            obs = RaggedRows.from_dense(obs.reshape(obs.shape[0], -1))
        return self.mlp(obs).reshape(obs.shape[0])    # (B,)


#: Table IV presets: name -> factory(max_obsv_size, job_features, seed).
POLICY_PRESETS = {
    "kernel": lambda m, f, seed=0: KernelPolicy(f, hidden=(32, 16, 8), seed=seed),
    "mlp_v1": lambda m, f, seed=0: MLPPolicy(m, f, hidden=(128, 128, 128), seed=seed),
    "mlp_v2": lambda m, f, seed=0: MLPPolicy(m, f, hidden=(32, 16, 8), seed=seed),
    "mlp_v3": lambda m, f, seed=0: MLPPolicy(m, f, hidden=(32, 32, 32, 32, 32), seed=seed),
    "lenet": lambda m, f, seed=0: LeNetPolicy(m, f, seed=seed),
}


def make_policy(name: str, max_obsv_size: int, job_features: int, seed: int = 0) -> Module:
    """Instantiate a Table IV policy network by preset name."""
    try:
        factory = POLICY_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown policy preset {name!r}; known: {sorted(POLICY_PRESETS)}"
        ) from None
    return factory(max_obsv_size, job_features, seed)
