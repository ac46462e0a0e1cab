"""ShuffleNetV2 (Ma et al., ECCV 2018), width-scalable.

Implements the two V2 unit types: the basic unit (channel split → half
passes through a 1×1 → 3×3 → 1×1 branch → concat → channel shuffle) and
the stride-2 downsampling unit (both halves transformed).  Depthwise
convolutions are realized as grouped convs with ``groups == channels``
via per-channel 2-D convolution lowered through the same strided-copy
column matrix as the dense kernel (one matrix-vector product per channel).
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.models.split import SplitModel
from repro.tensor import Tensor, concat, depthwise_conv2d

__all__ = ["channel_shuffle", "DepthwiseConv2d", "ShuffleUnit", "ShuffleNetV2Features", "shufflenetv2"]


def channel_shuffle(x: Tensor, groups: int) -> Tensor:
    """Interleave channels across ``groups`` (the V2 information-mixing op)."""
    n, c, h, w = x.shape
    if c % groups:
        raise ValueError(f"channels {c} not divisible by groups {groups}")
    x = x.reshape(n, groups, c // groups, h, w)
    x = x.transpose((0, 2, 1, 3, 4))
    return x.reshape(n, c, h, w)


class DepthwiseConv2d(nn.Module):
    """Depthwise 2-D convolution module (one filter per channel)."""

    def __init__(self, channels: int, kernel_size: int, stride: int = 1, padding: int = 0, rng=None):
        super().__init__()
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (channels, 1, kernel_size, kernel_size)
        self.weight = nn.Parameter(nn.init.kaiming_uniform(shape, rng=rng))

    def forward(self, x: Tensor) -> Tensor:
        return depthwise_conv2d(x, self.weight, None, stride=self.stride, padding=self.padding)


class ShuffleUnit(nn.Module):
    """ShuffleNetV2 basic (stride 1) or downsampling (stride 2) unit."""

    def __init__(self, in_ch: int, out_ch: int, stride: int, rng=None):
        super().__init__()
        if stride not in (1, 2):
            raise ValueError("stride must be 1 or 2")
        self.stride = stride
        branch_ch = out_ch // 2
        if stride == 1:
            if in_ch != out_ch:
                raise ValueError("stride-1 units require in_ch == out_ch")
            split_ch = in_ch // 2
            self.branch_main = nn.Sequential(
                nn.Conv2d(split_ch, branch_ch, 1, bias=False, rng=rng),
                nn.BatchNorm2d(branch_ch),
                nn.ReLU(),
                DepthwiseConv2d(branch_ch, 3, stride=1, padding=1, rng=rng),
                nn.BatchNorm2d(branch_ch),
                nn.Conv2d(branch_ch, branch_ch, 1, bias=False, rng=rng),
                nn.BatchNorm2d(branch_ch),
                nn.ReLU(),
            )
            self.branch_proj = None
        else:
            self.branch_main = nn.Sequential(
                nn.Conv2d(in_ch, branch_ch, 1, bias=False, rng=rng),
                nn.BatchNorm2d(branch_ch),
                nn.ReLU(),
                DepthwiseConv2d(branch_ch, 3, stride=2, padding=1, rng=rng),
                nn.BatchNorm2d(branch_ch),
                nn.Conv2d(branch_ch, branch_ch, 1, bias=False, rng=rng),
                nn.BatchNorm2d(branch_ch),
                nn.ReLU(),
            )
            self.branch_proj = nn.Sequential(
                DepthwiseConv2d(in_ch, 3, stride=2, padding=1, rng=rng),
                nn.BatchNorm2d(in_ch),
                nn.Conv2d(in_ch, branch_ch, 1, bias=False, rng=rng),
                nn.BatchNorm2d(branch_ch),
                nn.ReLU(),
            )

    def forward(self, x: Tensor) -> Tensor:
        if self.stride == 1:
            c = x.shape[1]
            left = x[:, : c // 2]
            right = x[:, c // 2 :]
            out = concat([left, self.branch_main(right)], axis=1)
        else:
            out = concat([self.branch_proj(x), self.branch_main(x)], axis=1)
        return channel_shuffle(out, 2)


class ShuffleNetV2Features(nn.Module):
    """ShuffleNetV2 backbone + projection FC."""

    def __init__(
        self,
        in_channels: int = 3,
        feature_dim: int = 512,
        stage_channels: tuple[int, ...] = (24, 48, 96, 192),
        stage_repeats: tuple[int, ...] = (4, 8, 4),
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        stem_ch = stage_channels[0]
        self.stem = nn.Sequential(
            nn.Conv2d(in_channels, stem_ch, 3, stride=1, padding=1, bias=False, rng=rng),
            nn.BatchNorm2d(stem_ch),
            nn.ReLU(),
        )
        units = []
        in_ch = stem_ch
        for stage_idx, repeats in enumerate(stage_repeats):
            out_ch = stage_channels[stage_idx + 1]
            units.append(ShuffleUnit(in_ch, out_ch, stride=2, rng=rng))
            for _ in range(repeats - 1):
                units.append(ShuffleUnit(out_ch, out_ch, stride=1, rng=rng))
            in_ch = out_ch
        self.stages = nn.Sequential(*units)
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.proj = nn.Linear(in_ch, feature_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        x = self.stages(x)
        x = self.flatten(self.pool(x))
        return self.proj(x)


def shufflenetv2(
    in_channels: int = 3,
    num_classes: int = 10,
    feature_dim: int = 512,
    stage_channels: tuple[int, ...] = (24, 48, 96, 192),
    stage_repeats: tuple[int, ...] = (4, 8, 4),
    rng: np.random.Generator | None = None,
) -> SplitModel:
    """Build a split ShuffleNetV2 client model."""
    fe = ShuffleNetV2Features(
        in_channels=in_channels,
        feature_dim=feature_dim,
        stage_channels=stage_channels,
        stage_repeats=stage_repeats,
        rng=rng,
    )
    return SplitModel(fe, feature_dim, num_classes, arch="shufflenetv2", rng=rng)
