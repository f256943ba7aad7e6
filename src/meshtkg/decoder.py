"""ConvTransE query decoder.

Stacks a (subject, relation) embedding pair as a 2-channel signal over the
feature axis, convolves with C same-padded kernels, and projects the
flattened feature maps back to the embedding dimension. Two independent
instances serve the structural and the semantic path; they share the
architecture but never the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class ConvTransEParams:
    kernels: Tensor       # (channels, 2, width)
    kernel_bias: Tensor   # (channels,)
    proj: Tensor          # (channels * d, d)
    proj_bias: Tensor     # (d,)
    dropout: float = 0.0

    @property
    def channels(self) -> int:
        return self.kernels.shape[0]

    @property
    def dim(self) -> int:
        return self.proj.shape[1]


def init_conv_transe(dim: int, channels: int, width: int, dropout: float,
                     gen: np.random.Generator, dtype=np.float32) -> ConvTransEParams:
    k_bound = (6.0 / (2 * width + channels * width)) ** 0.5
    p_bound = (6.0 / (channels * dim + dim)) ** 0.5
    return ConvTransEParams(
        kernels=Tensor(gen.uniform(-k_bound, k_bound, (channels, 2, width)), dtype=dtype),
        kernel_bias=Tensor(np.zeros(channels, dtype=dtype)),
        proj=Tensor(gen.uniform(-p_bound, p_bound, (channels * dim, dim)), dtype=dtype),
        proj_bias=Tensor(np.zeros(dim, dtype=dtype)),
        dropout=dropout,
    )


def decode(params: ConvTransEParams, h: Tensor, r: Tensor, *,
           gen: np.random.Generator | None = None) -> Tensor:
    """Query vectors for a batch of (subject, relation) embedding pairs.

    h and r are (batch, d); the result is (batch, d).
    """
    if h.shape != r.shape or h.shape[-1] != params.dim:
        raise ValueError(f"expected two (batch, {params.dim}) inputs, got {h.shape} and {r.shape}")
    batch, d = h.shape
    stacked = ad.concat(
        [ad.reshape(h, (batch, 1, d)), ad.reshape(r, (batch, 1, d))], axis=1
    )
    fmap = ad.conv1d(stacked, params.kernels)
    fmap = ad.add(fmap, ad.reshape(params.kernel_bias, (1, params.channels, 1)))
    fmap = ad.relu(fmap)
    fmap = ad.dropout(fmap, params.dropout, gen)
    flat = ad.reshape(fmap, (batch, params.channels * d))
    return ad.add(ad.matmul(flat, params.proj), params.proj_bias)
