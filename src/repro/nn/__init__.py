"""From-scratch NumPy neural-network stack: reverse-mode autodiff tensors,
layers (dense/conv/pool), the paper's policy & value networks, optimizers."""

from .tensor import (
    Parameter,
    Tensor,
    gather_rows,
    no_grad,
    scatter_rows,
    segment_logsumexp,
    segment_max,
    segment_sum,
)
from .ragged import RaggedRows, ragged_matmul, row_extents
from .layers import Conv2d, Dense, Flatten, Module, Sequential, conv2d, max_pool2d
from .functional import (
    entropy,
    flat_action_index,
    greedy_action,
    log_prob_of,
    masked_log_softmax,
    sample_action_batch,
    segment_entropy,
    segment_log_prob_of,
    segment_log_softmax,
    valid_rows,
)
from .gradcheck import gradcheck, numerical_gradient
from .networks import (
    POLICY_PRESETS,
    KernelPolicy,
    LeNetPolicy,
    MLPPolicy,
    ValueMLP,
    make_policy,
)
from .optim import SGD, Adam, clip_grad_norm

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "gather_rows",
    "scatter_rows",
    "segment_sum",
    "segment_max",
    "segment_logsumexp",
    "RaggedRows",
    "ragged_matmul",
    "row_extents",
    "segment_log_softmax",
    "segment_log_prob_of",
    "segment_entropy",
    "valid_rows",
    "flat_action_index",
    "gradcheck",
    "numerical_gradient",
    "Module",
    "Dense",
    "Sequential",
    "Conv2d",
    "Flatten",
    "conv2d",
    "max_pool2d",
    "masked_log_softmax",
    "log_prob_of",
    "entropy",
    "sample_action_batch",
    "greedy_action",
    "KernelPolicy",
    "MLPPolicy",
    "LeNetPolicy",
    "ValueMLP",
    "POLICY_PRESETS",
    "make_policy",
    "Adam",
    "SGD",
    "clip_grad_norm",
]
