"""kernelblend: two-stage dynamic convolution via basis-kernel blending.

A lightweight conditioning network previews each input and emits per-layer
combination coefficients; those blend a bank of basis kernels into an
input-specific specialist network, with optional early termination when the
preview is already confident.
"""

from .backbone import BackboneSpec, LayerSpec, build, count_madds, count_params, forward
from .pipeline import LightweightModel, PipelineResult, condconv_forward, confidence, infer
from .synthesis import (
    BasisBank,
    SynthesisConfig,
    activate,
    apply_bmd,
    blend_epsilon,
    build_bank,
    synthesize,
    synthesis_madds,
    to_one_hot,
)
from .tensor import GradTape, NonFiniteError, ShapeError, Tensor, backward, recording
from .training import LossConfig, TrainSchedule, TrainState, epsilon_at, train_step

__all__ = [
    "BackboneSpec", "LayerSpec", "build", "count_madds", "count_params", "forward",
    "LightweightModel", "PipelineResult", "condconv_forward", "confidence", "infer",
    "BasisBank", "SynthesisConfig", "activate", "apply_bmd", "blend_epsilon",
    "build_bank", "synthesize", "synthesis_madds", "to_one_hot",
    "GradTape", "NonFiniteError", "ShapeError", "Tensor", "backward", "recording",
    "LossConfig", "TrainSchedule", "TrainState", "epsilon_at", "train_step",
]

__version__ = "0.1.0"
