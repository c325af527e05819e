"""A from-scratch NumPy deep-learning engine.

This package stands in for Apache SINGA / TensorFlow in the paper's
stack. It implements the pieces Rafiki's services actually exercise:

* layers with explicit forward/backward passes (dense, convolution,
  pooling, batch normalisation, dropout, activations),
* losses and evaluation metrics,
* SGD and Adam optimisers with learning-rate schedules and weight decay
  (the Table 1 group-3 hyper-parameters),
* a :class:`~repro.tensor.network.Network` container with *named*
  parameters and shape-matched warm starting, which is what the
  collaborative tuning scheme (CoStudy) relies on.
"""

from repro.tensor.dtype import default_dtype, set_default_dtype, using_dtype
from repro.tensor.initializers import gaussian_init, glorot_uniform_init, zeros_init
from repro.tensor.layers import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.tensor.losses import Loss, MeanSquaredError, SoftmaxCrossEntropy
from repro.tensor.metrics import f1_score
from repro.tensor.network import Network
from repro.tensor.optimizers import (
    SGD,
    Adam,
    ConstantSchedule,
    ExponentialDecaySchedule,
    LearningRateSchedule,
    Optimizer,
)
from repro.tensor.training import evaluate, train_epoch

__all__ = [
    "default_dtype",
    "set_default_dtype",
    "using_dtype",
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "Flatten",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Dropout",
    "BatchNorm",
    "Loss",
    "SoftmaxCrossEntropy",
    "MeanSquaredError",
    "Network",
    "Optimizer",
    "SGD",
    "Adam",
    "LearningRateSchedule",
    "ConstantSchedule",
    "ExponentialDecaySchedule",
    "zeros_init",
    "gaussian_init",
    "glorot_uniform_init",
    "f1_score",
    "train_epoch",
    "evaluate",
]
