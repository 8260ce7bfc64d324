"""Recurrent graph tensor networks for multi-way sequence modelling.

The graph-filter sequence models (grgtn, srgtn) and a vanilla RNN baseline
on a reverse-mode tape, tensor-train decomposition and heads, and training
plus CLI tooling for desk-scale comparisons.
"""

from .tensor import DenseTensor, Shape, ShapeError, from_array
from .tt import TTNetwork, dense_param_count, tt_param_count, tt_reconstruct, tt_svd
from .graph import build_time_adjacency
from .autodiff import TapeNode, backward, cross_entropy_loss, mae_loss, mse_loss
from .models import HeadConfig, ModelConfig, forward, init_params, param_count, predict
from .training import ParamStore, TrainConfig, adam_step, evaluate, train
from .data import (
    SeriesTable,
    WindowedDataset,
    load_csv,
    normalize,
    synth_classification,
    synth_linear_dynamics,
    window,
)

__version__ = "0.1.0"
