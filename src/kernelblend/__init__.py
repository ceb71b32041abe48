"""kernelblend: two-stage dynamic convolution via basis-kernel blending.

A lightweight conditioning network previews each input and emits per-layer
combination coefficients; those blend a bank of basis kernels into an
input-specific specialist network, with optional early termination when the
preview is already confident.
"""

__version__ = "0.1.0"
