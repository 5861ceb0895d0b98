"""Training engine for small CNNs with discriminant and center
auxiliary losses driven by exponential-forgetting online statistics."""

from .config import PRESETS, ConfigError, RunConfig, apply_preset
from .data import Dataset, load_idx, synth_blobs
from .layers import BatchNorm, Conv2d, Dense, Dropout, Flatten, MaxPool2x2, ReLU
from .losses import (
    AuxState,
    LossReport,
    adaptive_center_loss,
    adaptive_discriminant,
    center_loss,
    combined_objective,
    discriminant_criterion,
    softmax,
    softmax_cross_entropy,
)
from .network import Network, build_architecture
from .optim import SGD, lr_at_epoch
from .streaming import (
    CenterBank,
    NeuronClassStats,
    masked_weighted_mean_direct,
    weighted_moments_direct,
)
from .tensor import CheckpointError, NonFiniteError, Rng, load_bundle, restore_arrays, save_bundle
from .train import evaluate, load_checkpoint, load_run_datasets, run_training

__version__ = "0.1.0"
