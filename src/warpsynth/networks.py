"""Desk-scale networks: synthesis and registration U-Nets, plus ResNet-style
encoders for rigid registration and the discriminator.

Shared construction rules: double 3x3 convolutions on each resolution,
stride-2 kernel-2 convolutions between resolutions (transposed on the way
up), skip connections by channel concatenation. The synthesis network uses
group normalization and leaky ReLU (slope 0.01); the velocity-field U-Nets
use plain ReLU and no normalization, with zero-initialized output heads so
training starts from identity deformations. Encoders downsample once per
stage, end in global average pooling and a linear map, and the discriminator
additionally runs every weight through spectral normalization. The rigid
encoder gets two channels of [-1, 1] image coordinates so pooling does not
erase rotations.

``Encoder.forward(..., frozen=True)`` applies an encoder with detached
parameters (and its spectral-norm power iterations held); the adversarial
loss uses it to keep discriminator gradients out of generator steps. The
U-Net layers take no such flag: no caller freezes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .deform import RigidParams


def _uniform(rng, shape, fan_in):
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _numbered(stem, modules):
    return [(f"{stem}{i}", m) for i, m in enumerate(modules)]


class Module:
    """Base of every layer, network and the bundle: walks their parameters
    and power-iteration states.

    A leaf maps checkpoint names to its tensor attributes in ``tensors`` and
    holds its power-iteration state, when spectrally normalized, in ``sn``;
    a composite lists its named sub-modules in ``children``. Their order is
    the checkpoint key order, which is a file format.
    """

    tensors: dict[str, str] = {}
    sn = None

    def children(self):
        return []

    def named_params(self, prefix=""):
        own = [(f"{prefix}{name}", getattr(self, attr)) for name, attr in self.tensors.items()]
        return own + [p for name, m in self.children() for p in m.named_params(f"{prefix}{name}.")]

    def params(self):
        return [p for _, p in self.named_params()]

    def power_states(self, prefix=""):
        own = [] if self.sn is None else [(f"{prefix}u", self.sn)]
        return own + [s for name, m in self.children() for s in m.power_states(f"{prefix}{name}.")]


class _Weighted(Module):
    """A layer with a weight and a bias, optionally spectrally normalized."""

    tensors = {"w": "w", "b": "b"}

    def __init__(self, w, b, spectral=False):
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(b, requires_grad=True)
        self.sn = T.PowerIterState() if spectral else None

    def _weights(self, frozen):
        w = self.w if self.sn is None else T.spectral_normalize(self.w, self.sn, update=not frozen)
        b = self.b
        if frozen:
            w, b = w.detach(), b.detach()
        return w, b


class Conv(_Weighted):
    def __init__(self, rng, cin, cout, k, stride=1, padding=0, zero_init=False, spectral=False):
        if zero_init:
            w = np.zeros((cout, cin, k, k))
            b = np.zeros(cout)
        else:
            w = _uniform(rng, (cout, cin, k, k), cin * k * k)
            b = _uniform(rng, (cout,), cin * k * k)
        super().__init__(w, b, spectral)
        self.stride, self.padding = stride, padding

    def forward(self, x, frozen=False):
        return T.conv2d(x, *self._weights(frozen), self.stride, self.padding)


class ConvTranspose(_Weighted):
    """2x upsampling: a 2x2 kernel at stride 2."""

    def __init__(self, rng, cin, cout):
        super().__init__(_uniform(rng, (cin, cout, 2, 2), cin * 4), _uniform(rng, (cout,), cin * 4))

    def forward(self, x):
        return T.conv_transpose2d(x, self.w, self.b)


class DenseHead(_Weighted):
    def __init__(self, rng, nin, nout, zero_init=False, spectral=False):
        w = np.zeros((nout, nin)) if zero_init else _uniform(rng, (nout, nin), nin)
        b = np.zeros(nout) if zero_init else _uniform(rng, (nout,), nin)
        super().__init__(w, b, spectral)

    def forward(self, x, frozen=False):
        return T.dense(x, *self._weights(frozen))


class GroupNorm(Module):
    tensors = {"g": "gamma", "b": "beta"}
    # one group (the layer-norm special case) keeps cross-channel intensity
    # relations intact, which desk-scale synthesis needs; per-channel groups
    # wash them out and stall training
    groups = 1

    def __init__(self, channels):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)

    def forward(self, x):
        return T.group_norm(x, self.groups, self.gamma, self.beta)


LEAKY_SLOPE = 0.01


def _act(x, activation):
    return T.leaky_relu(x, LEAKY_SLOPE if activation == "leaky" else 0.0)


class DoubleConv(Module):
    """Two 3x3 convolutions with optional group norm, activation after each."""

    def __init__(self, rng, cin, cout, norm, activation):
        self.c1 = Conv(rng, cin, cout, 3, 1, 1)
        self.c2 = Conv(rng, cout, cout, 3, 1, 1)
        self.n1 = GroupNorm(cout) if norm == "group" else None
        self.n2 = GroupNorm(cout) if norm == "group" else None
        self.activation = activation

    def forward(self, x):
        h = self.c1.forward(x)
        if self.n1 is not None:
            h = self.n1.forward(h)
        h = _act(h, self.activation)
        h = self.c2.forward(h)
        if self.n2 is not None:
            h = self.n2.forward(h)
        return _act(h, self.activation)

    def children(self):
        return _numbered("", [m for m in (self.c1, self.n1, self.c2, self.n2) if m is not None])


@dataclass
class UnetSpec:
    in_channels: int
    out_channels: int
    encoder_features: list = field(default_factory=lambda: [16, 32, 64, 64])
    norm: str = "none"  # "group" | "none"
    activation: str = "relu"  # "leaky" | "relu"
    zero_init_head: bool = False

    def __post_init__(self):
        if len(self.encoder_features) < 2:
            raise ValueError("U-Net needs at least two resolutions")


class UNet(Module):
    """Encoder-decoder with skip connections; decoder features mirror the
    encoder in reverse order; output head is a 1x1 convolution."""

    def __init__(self, spec: UnetSpec, rng):
        self.spec = spec
        f = spec.encoder_features
        mk = lambda cin, cout: DoubleConv(rng, cin, cout, spec.norm, spec.activation)
        self.enc = [mk(spec.in_channels, f[0])]
        self.down = []
        for i in range(1, len(f)):
            self.down.append(Conv(rng, f[i - 1], f[i], 2, 2, 0))
            self.enc.append(mk(f[i], f[i]))
        self.up, self.dec = [], []
        for i in range(len(f) - 2, -1, -1):
            self.up.append(ConvTranspose(rng, f[i + 1], f[i]))
            self.dec.append(mk(2 * f[i], f[i]))
        self.head = Conv(rng, f[0], spec.out_channels, 1, 1, 0, zero_init=spec.zero_init_head)

    def forward(self, x: Tensor) -> Tensor:
        levels = len(self.spec.encoder_features)
        h, w = x.shape[1], x.shape[2]
        divisor = 2 ** (levels - 1)
        if h % divisor or w % divisor:
            raise ValueError(f"extents {(h, w)} not divisible by {divisor}")
        skips = []
        z = self.enc[0].forward(x)
        skips.append(z)
        for down, enc in zip(self.down, self.enc[1:]):
            z = enc.forward(down.forward(z))
            skips.append(z)
        for up, dec, skip in zip(self.up, self.dec, reversed(skips[:-1])):
            z = up.forward(z)
            z = T.concat([z, skip])
            z = dec.forward(z)
        return self.head.forward(z)

    def children(self):
        return (_numbered("enc", self.enc) + _numbered("down", self.down) + _numbered("up", self.up)
                + _numbered("dec", self.dec) + [("head", self.head)])


class ResBlock(Module):
    """Two 3x3 convolutions with an identity shortcut."""

    def __init__(self, rng, channels, activation, spectral):
        self.c1 = Conv(rng, channels, channels, 3, 1, 1, spectral=spectral)
        self.c2 = Conv(rng, channels, channels, 3, 1, 1, spectral=spectral)
        self.activation = activation

    def forward(self, x, frozen=False):
        h = _act(self.c1.forward(x, frozen), self.activation)
        h = self.c2.forward(h, frozen)
        return _act(h + x, self.activation)

    def children(self):
        return _numbered("", [self.c1, self.c2])


@lru_cache(maxsize=16)
def _coord_channels(h: int, w: int) -> np.ndarray:
    ys = np.linspace(-1.0, 1.0, h)[:, None] * np.ones((1, w))
    xs = np.ones((h, 1)) * np.linspace(-1.0, 1.0, w)[None, :]
    out = np.stack([ys, xs])
    out.setflags(write=False)
    return out


@dataclass
class EncoderSpec:
    in_channels: int
    encoder_features: list = field(default_factory=lambda: [16, 32, 64])
    out_dim: int = 1
    spectral_norm: bool = False
    coord_input: bool = False
    activation: str = "relu"
    zero_init_head: bool = False

    def __post_init__(self):
        if self.out_dim < 1:
            raise ValueError("out_dim must be >= 1")


class Encoder(Module):
    """Strided-downsampling residual encoder -> global average pool -> linear."""

    def __init__(self, spec: EncoderSpec, rng):
        self.spec = spec
        f = spec.encoder_features
        cin = spec.in_channels + (2 if spec.coord_input else 0)
        self.down, self.blocks = [], []
        prev = cin
        for feat in f:
            self.down.append(Conv(rng, prev, feat, 2, 2, 0, spectral=spec.spectral_norm))
            self.blocks.append(ResBlock(rng, feat, spec.activation, spec.spectral_norm))
            prev = feat
        self.fc = DenseHead(rng, f[-1], spec.out_dim, zero_init=spec.zero_init_head, spectral=spec.spectral_norm)

    def forward(self, x: Tensor, frozen=False) -> Tensor:
        h, w = x.shape[1], x.shape[2]
        divisor = 2 ** len(self.spec.encoder_features)
        if h % divisor or w % divisor or h < divisor or w < divisor:
            raise ValueError(f"extents {(h, w)} unsupported for {len(self.down)} downsamplings")
        if self.spec.coord_input:
            x = T.concat([x, Tensor(_coord_channels(h, w))])
        z = x
        for down, block in zip(self.down, self.blocks):
            z = block.forward(down.forward(z, frozen), frozen)
        return self.fc.forward(T.global_avg_pool(z), frozen)

    def children(self):
        pairs = zip(_numbered("down", self.down), _numbered("block", self.blocks))
        return [c for pair in pairs for c in pair] + [("fc", self.fc)]


def rigid_head(raw: Tensor, max_angle: float, max_shift, center) -> RigidParams:
    """Squash a raw 3-vector into bounded rigid parameters; zero input gives
    the identity transform."""
    angle = max_angle * T.tanh(raw[0])
    sy, sx = (max_shift, max_shift) if np.isscalar(max_shift) else max_shift
    ty = sy * T.tanh(raw[1])
    tx = sx * T.tanh(raw[2])
    return RigidParams(angle, (ty, tx), center)


@dataclass
class ModelBundle(Module):
    """Parameter sets for synthesis (f), cross-modality registration (h_rig,
    h_svf), intra-modality registration (g_svf) and the discriminator."""

    f: UNet
    h_rig: Encoder | None = None
    h_svf: UNet | None = None
    g_svf: UNet | None = None
    d: Encoder | None = None
    max_angle: float = math.pi / 6.0
    max_shift: float = 24.0

    def children(self):
        nets = (("f", self.f), ("h_rig", self.h_rig), ("h_svf", self.h_svf),
                ("g_svf", self.g_svf), ("d", self.d))
        return [(name, net) for name, net in nets if net is not None]


def build_models(in_channels: int, label_channels: int, image_size: int, seed: int,
                 features_f=None, features_reg=None, features_rig=None, features_disc=None,
                 registration: bool = True, adversarial_mode: str | None = None) -> ModelBundle:
    """Instantiate the bundle with channel contracts matching the dataset.

    Registration networks see the raw input, the misaligned label and the
    label validity mask concatenated over channels; the intra-modality
    network additionally sees the inverse elastic displacement.
    """
    features_f = features_f or [16, 32, 64, 64]
    features_reg = features_reg or features_f
    features_rig = features_rig or [16, 32, 64]
    features_disc = features_disc or features_rig

    seeds = np.random.SeedSequence(seed).spawn(5)
    rngs = [np.random.default_rng(s) for s in seeds]

    f = UNet(UnetSpec(in_channels, label_channels, list(features_f), norm="group",
                      activation="leaky"), rngs[0])
    h_rig = h_svf = g_svf = d = None
    if registration:
        reg_in = in_channels + label_channels + 1
        h_rig = Encoder(EncoderSpec(reg_in, list(features_rig), out_dim=3, coord_input=True,
                                    activation="relu", zero_init_head=True), rngs[1])
        h_svf = UNet(UnetSpec(reg_in, 2, list(features_reg), norm="none", activation="relu",
                              zero_init_head=True), rngs[2])
        g_svf = UNet(UnetSpec(2 * label_channels + 2 + 1, 2, list(features_reg), norm="none",
                              activation="relu", zero_init_head=True), rngs[3])
    if adversarial_mode is not None:
        cond = adversarial_mode in ("eq-adv", "def-cond-adv")
        d_in = label_channels + (in_channels if cond else 0)
        d = Encoder(EncoderSpec(d_in, list(features_disc), out_dim=1, spectral_norm=True,
                                activation="leaky"), rngs[4])
    return ModelBundle(f=f, h_rig=h_rig, h_svf=h_svf, g_svf=g_svf, d=d, max_shift=0.25 * image_size)
