"""From-scratch NumPy neural-network stack: reverse-mode autodiff tensors,
layers (dense/conv/pool), the paper's policy & value networks, optimizers."""

from .tensor import (
    Parameter,
    Tensor,
    gather_rows,
    no_grad,
    segment_logsumexp,
    segment_sum,
)
from .ragged import (
    RaggedRows,
    csr_gather,
    csr_indptr,
    ragged_matmul,
    row_extents,
    window_extents,
)
from .layers import (
    Conv2d,
    Dense,
    DenseStack,
    Flatten,
    Module,
    conv2d,
    max_pool2d,
)
from .functional import (
    log_prob_of,
    masked_log_softmax,
    sample_action_batch,
    segment_log_softmax,
    segment_rectangle,
)
from .gradcheck import gradcheck, numerical_gradient
from .networks import (
    POLICY_PRESETS,
    KernelPolicy,
    LeNetPolicy,
    MLPPolicy,
    ValueMLP,
    WindowPolicy,
    make_policy,
)
from .optim import Adam, clip_grad_norm

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "gather_rows",
    "segment_sum",
    "segment_logsumexp",
    "RaggedRows",
    "ragged_matmul",
    "row_extents",
    "window_extents",
    "csr_indptr",
    "csr_gather",
    "segment_log_softmax",
    "segment_rectangle",
    "gradcheck",
    "numerical_gradient",
    "Module",
    "Dense",
    "DenseStack",
    "Conv2d",
    "Flatten",
    "conv2d",
    "max_pool2d",
    "masked_log_softmax",
    "log_prob_of",
    "sample_action_batch",
    "KernelPolicy",
    "MLPPolicy",
    "WindowPolicy",
    "LeNetPolicy",
    "ValueMLP",
    "POLICY_PRESETS",
    "make_policy",
    "Adam",
    "clip_grad_norm",
]
