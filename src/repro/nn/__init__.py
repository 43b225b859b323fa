"""Numpy neural-network substrate.

Stands in for the paper's PyTorch (training) and ONNX runtime (inference):
dense layers with manual backprop, multi-task shared-trunk models, an LSTM
cell for the MHAS controller, Adam/SGD optimizers, and a frozen
:class:`~repro.nn.inference.InferenceSession` whose weights are stored
bit-packed (:mod:`~repro.nn.quantize`) at the width Eq. 1 picks.
"""

from .activations import log_softmax, relu, sigmoid, softmax, tanh
from .compiled import CompiledSession
from .inference import InferenceSession
from .initializers import glorot_uniform, orthogonal, uniform, zeros
from .layers import Dense, Embedding, Parameter
from .losses import accuracy, mse, softmax_cross_entropy
from .lstm import LSTMCell, LSTMState, StepCache
from .multitask import ArchitectureSpec, MultiTaskMLP
from .optimizers import SGD, Adam, ExponentialDecay, Optimizer
from .training import Trainer, TrainingResult

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "glorot_uniform",
    "orthogonal",
    "uniform",
    "zeros",
    "Parameter",
    "Dense",
    "Embedding",
    "softmax_cross_entropy",
    "mse",
    "accuracy",
    "LSTMCell",
    "LSTMState",
    "StepCache",
    "ArchitectureSpec",
    "MultiTaskMLP",
    "InferenceSession",
    "CompiledSession",
    "Optimizer",
    "SGD",
    "Adam",
    "ExponentialDecay",
    "Trainer",
    "TrainingResult",
]
