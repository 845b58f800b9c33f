"""Kolmogorov-Arnold networks with learnable B-spline activations plus a
DCT-based activation watermarking pipeline (embedding, detection,
verification) and watermark-removal attack harnesses."""

from .numeric import OptimizerState, ShapeError, adam, optimizer_step, softmax
from .spline import SplineGrid, basis_and_slopes, build_grid
from .transform import dct, idct
from .kan import KanLayer, KanModel, edge_importances, prune_kan
from .mlp import MlpModel, prune_mlp
from .training import evaluate, fit
from .data import (FEYNMAN, Dataset, DataError, FeynmanFormula, average_pool,
                   gen_feynman, load_idx, split_dataset, write_idx)
from .watermark import (VerificationResult, build_detector_dataset,
                        calibrate_amplitude, embed, gen_signal, signal_step, verify)
from .attacks import finetune, prune_sweep

__version__ = "0.1.0"
