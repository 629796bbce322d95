"""Deformation algebra: pullbacks, composition, diffeomorphisms from
stationary velocity fields, rigid transforms, and simulated deformations.

Conventions
-----------
* Coordinates are (row, col) pixel units; channel-major images (C, H, W).
* A deformation is a source-lookup map: output pixel p reads the source at
  d(p). Dense deformations store absolute coordinate maps, not displacements.
* Affine deformations are kept in closed form so composing or inverting them
  never accrues interpolation error.
* Masks are plain boolean arrays and never participate in the gradient tape.
  Any resampling marks a pixel invalid when one of its contributing
  interpolation corners is out of bounds or itself invalid.
* Velocity/displacement fields are extended beyond the grid by edge clamping
  (a constant field then flows to an exact translation); image values are
  extended by zeros, with the mask recording what was read from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .tensor import Tensor


@lru_cache(maxsize=32)
def _grid_array(h: int, w: int) -> np.ndarray:
    g = np.stack(np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij"))
    g.setflags(write=False)
    return g


def grid_coords(h: int, w: int) -> Tensor:
    """Constant tensor of identity pixel coordinates, shape (2, h, w)."""
    return Tensor(_grid_array(h, w))


def full_mask(h: int, w: int) -> np.ndarray:
    return np.ones((h, w), dtype=bool)


# -- images -----------------------------------------------------------------------


@dataclass
class Image:
    """Channel-major image with a validity mask (1 = valid)."""

    data: Tensor
    mask: np.ndarray

    def __post_init__(self):
        if not isinstance(self.data, Tensor):
            self.data = Tensor(self.data)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.data.shape[1:] != self.mask.shape:
            raise ValueError(f"image {self.data.shape} / mask {self.mask.shape} extent mismatch")

    @staticmethod
    def from_array(arr, mask=None) -> "Image":
        arr = np.asarray(arr, dtype=np.float64)
        if mask is None:
            mask = full_mask(*arr.shape[1:])
        return Image(Tensor(arr), mask)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def extents(self):
        return self.data.shape[1:]

    def detached(self) -> "Image":
        return Image(self.data.detach(), self.mask)


# -- affine maps ------------------------------------------------------------------


def _scalar(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(float(x)))


@dataclass
class Affine:
    """2-d affine map p -> A p + b with entries stored as 0-d tensors, so a
    map built from network outputs stays differentiable."""

    ayy: Tensor
    ayx: Tensor
    axy: Tensor
    axx: Tensor
    by: Tensor
    bx: Tensor

    def __post_init__(self):
        for f in ("ayy", "ayx", "axy", "axx", "by", "bx"):
            setattr(self, f, _scalar(getattr(self, f)))

    @staticmethod
    def identity() -> "Affine":
        return Affine(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def apply(self, coords: Tensor) -> Tensor:
        """Evaluate at coordinates (2, ...) in closed form."""
        cy, cx = coords[0], coords[1]
        ny = self.ayy * cy + self.ayx * cx + self.by
        nx = self.axy * cy + self.axx * cx + self.bx
        return T.stack([ny, nx])

    def compose(self, inner: "Affine") -> "Affine":
        """Closed-form p -> inner(self(p))."""
        i, o = inner, self
        return Affine(
            i.ayy * o.ayy + i.ayx * o.axy,
            i.ayy * o.ayx + i.ayx * o.axx,
            i.axy * o.ayy + i.axx * o.axy,
            i.axy * o.ayx + i.axx * o.axx,
            i.ayy * o.by + i.ayx * o.bx + i.by,
            i.axy * o.by + i.axx * o.bx + i.bx,
        )

    def inverse(self) -> "Affine":
        det = self.ayy * self.axx - self.ayx * self.axy
        iyy = self.axx / det
        iyx = T.neg(self.ayx) / det
        ixy = T.neg(self.axy) / det
        ixx = self.ayy / det
        return Affine(
            iyy, iyx, ixy, ixx,
            T.neg(iyy * self.by + iyx * self.bx),
            T.neg(ixy * self.by + ixx * self.bx),
        )

    def detached(self) -> "Affine":
        return Affine(*(getattr(self, f).detach() for f in ("ayy", "ayx", "axy", "axx", "by", "bx")))

    def as_arrays(self):
        a = np.array([[self.ayy.item(), self.ayx.item()], [self.axy.item(), self.axx.item()]])
        b = np.array([self.by.item(), self.bx.item()])
        return a, b


# -- deformations -----------------------------------------------------------------


@dataclass
class Deformation:
    """Dense coordinate map or closed-form affine, plus a validity mask.

    ``mask is None`` means valid everywhere (always the case for affine kind).
    """

    kind: str  # "dense" | "affine"
    coords: Tensor | None = None
    affine: Affine | None = None
    mask: np.ndarray | None = None

    @staticmethod
    def from_coords(coords: Tensor, mask: np.ndarray | None = None) -> "Deformation":
        return Deformation("dense", coords=coords, mask=mask)

    @staticmethod
    def from_affine(affine: Affine) -> "Deformation":
        return Deformation("affine", affine=affine)

    @property
    def extents(self):
        return None if self.kind == "affine" else self.coords.shape[1:]

    def dense_coords(self, h: int, w: int) -> Tensor:
        """Coordinate map on an (h, w) grid; exact evaluation for affine."""
        if self.kind == "affine":
            return self.affine.apply(grid_coords(h, w))
        if self.coords.shape[1:] != (h, w):
            raise ValueError(f"deformation extents {self.coords.shape[1:]} != ({h}, {w})")
        return self.coords

    def mask_array(self, h: int, w: int) -> np.ndarray:
        if self.mask is None:
            return full_mask(h, w)
        if self.mask.shape != (h, w):
            raise ValueError(f"deformation mask {self.mask.shape} != ({h}, {w})")
        return self.mask

    def displacement(self, h: int, w: int) -> Tensor:
        return self.dense_coords(h, w) - grid_coords(h, w)

    def detached(self) -> "Deformation":
        if self.kind == "affine":
            return Deformation("affine", affine=self.affine.detached(), mask=self.mask)
        return Deformation("dense", coords=self.coords.detach(), mask=self.mask)

    def inverse_affine(self) -> "Deformation":
        if self.kind != "affine":
            raise ValueError("closed-form inverse exists only for affine deformations")
        return Deformation("affine", affine=self.affine.inverse())


def identity_map(h: int, w: int) -> Deformation:
    """Dense identity: every pixel maps to itself exactly; all valid."""
    if h < 1 or w < 1:
        raise ValueError("extents must be positive")
    return Deformation.from_coords(grid_coords(h, w), full_mask(h, w))


def identity_affine() -> Deformation:
    return Deformation.from_affine(Affine.identity())


# -- rigid transforms ---------------------------------------------------------------


@dataclass
class RigidParams:
    """Forward content motion: rotate by ``angle`` about ``center``, then
    translate by ``translation`` = (dy, dx). Entries may be tensors."""

    angle: Tensor | float
    translation: tuple
    center: tuple

    def __post_init__(self):
        self.angle = _scalar(self.angle)
        self.translation = (_scalar(self.translation[0]), _scalar(self.translation[1]))
        self.center = (float(self.center[0]), float(self.center[1]))


def rigid_to_deformation(p: RigidParams) -> Deformation:
    """Source-lookup affine for the rigid motion: d(q) = R(-angle)(q - c - t) + c."""
    c = T.cos(p.angle)
    s = T.sin(p.angle)
    cy, cx = p.center
    ty, tx = p.translation
    # R(-angle) = [[c, s], [-s, c]] in (row, col) coordinates
    sy = ty + cy
    sx = tx + cx
    by = cy - (c * sy + s * sx)
    bx = cx - (T.neg(s) * sy + c * sx)
    return Deformation.from_affine(Affine(c, s, T.neg(s), c, by, bx))


_ORTHO_LOOKUPS = {
    0: (1.0, 0.0, 0.0, 1.0),
    1: (0.0, 1.0, -1.0, 0.0),
    2: (-1.0, 0.0, 0.0, -1.0),
    3: (0.0, -1.0, 1.0, 0.0),
}


def _about_center(ayy, ayx, axy, axx, cy, cx) -> Affine:
    by = cy - (ayy * cy + ayx * cx)
    bx = cx - (axy * cy + axx * cx)
    return Affine(ayy, ayx, axy, axx, by, bx)


@dataclass
class TransformConfig:
    """Distribution of simulated equivariance transforms: a small rotation,
    an orthogonal rotation, and axis flips, all about the image center."""

    max_rotation_deg: float = 15.0
    ortho_rotations: bool = True
    flips: bool = True


def sample_equivariance_transform(rng: np.random.Generator, cfg: TransformConfig, h: int, w: int):
    """Draw t and its exact closed-form inverse as affine deformations."""
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0

    angle = math.radians(rng.uniform(-cfg.max_rotation_deg, cfg.max_rotation_deg))
    k = int(rng.integers(0, 4))
    fy = bool(rng.integers(0, 2))
    fx = bool(rng.integers(0, 2))
    if not cfg.ortho_rotations:
        k = 0
    if not cfg.flips:
        fy = fx = False

    c, s = math.cos(angle), math.sin(angle)
    small = _about_center(c, s, -s, c, cy, cx)          # lookup for content rotation by +angle
    small_inv = _about_center(c, -s, s, c, cy, cx)
    ortho = _about_center(*_ORTHO_LOOKUPS[(4 - k) % 4], cy, cx)
    ortho_inv = _about_center(*_ORTHO_LOOKUPS[k], cy, cx)
    flip = _about_center(-1.0 if fy else 1.0, 0.0, 0.0, -1.0 if fx else 1.0, cy, cx)

    # content map: flips first, then ortho, then the small rotation;
    # the lookup composes in the reverse order
    t = small_inv.compose(ortho_inv).compose(flip)
    t_inv = flip.compose(ortho).compose(small)
    return Deformation.from_affine(t), Deformation.from_affine(t_inv)


# -- stationary velocity fields ------------------------------------------------------


class NonFiniteField(ValueError):
    """A velocity field stopped being finite (usually a diverging training)."""


@dataclass
class Svf:
    """Stationary velocity field (2, H, W), pixel units per unit time."""

    field: Tensor

    def __post_init__(self):
        if not isinstance(self.field, Tensor):
            self.field = Tensor(self.field)
        if self.field.shape[0] != 2 or len(self.field.shape) != 3:
            raise ValueError(f"velocity field must be (2, H, W), got {self.field.shape}")
        if not np.all(np.isfinite(self.field.data)):
            raise NonFiniteField("velocity field contains non-finite values")

    @property
    def extents(self):
        return self.field.shape[1:]

    def __neg__(self) -> "Svf":
        return Svf(T.neg(self.field))


def gaussian_svf(mu, sigma, m, h: int, w: int) -> Svf:
    """Isotropic Gaussian bump: component i is m_i * exp(-0.5*||p - mu||^2 / sigma_i^2)."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be positive")
    g = _grid_array(h, w)
    r2 = (g[0] - mu[0]) ** 2 + (g[1] - mu[1]) ** 2
    field = np.stack([m[i] * np.exp(-0.5 * r2 / sigma[i] ** 2) for i in range(2)])
    return Svf(Tensor(field))


def default_squarings(v: Svf) -> int:
    """Halvings so the scaled field moves less than half a pixel; capped at 7."""
    m = float(np.max(np.abs(v.field.data))) if v.field.data.size else 0.0
    if m < 0.5:
        return 0
    return min(7, int(math.ceil(math.log2(m / 0.5))))


def svf_exp(v: Svf, squarings: int | None = None) -> Deformation:
    """Flow of v over unit time by scaling and squaring.

    The field is scaled by 2^-squarings, added to the identity, and the
    resulting map is composed with itself ``squarings`` times. Differentiable
    with respect to the field. The result is valid everywhere: the field is
    modelled as extending beyond the grid by edge clamping.
    """
    if squarings is None:
        squarings = default_squarings(v)
    if squarings < 0:
        raise ValueError("squarings must be >= 0")
    h, w = v.extents
    grid = grid_coords(h, w)
    u = v.field * float(2.0 ** -squarings)
    for _ in range(squarings):
        u = u + T.bilinear_sample(u, grid + u, border="clamp")
    return Deformation.from_coords(grid + u, full_mask(h, w))


# -- composition and warping -----------------------------------------------------------


def compose(outer: Deformation, inner: Deformation) -> Deformation:
    """p -> inner(outer(p)); pullback identity (compose(d1, d2))* y == d1*(d2* y).

    Affine-affine stays affine (exact). A dense outer with an affine inner is
    evaluated in closed form (exact). A dense inner is resampled at the outer
    coordinates: displacement values are edge-clamped, and pixels whose
    lookups leave the grid or touch invalid pixels become invalid.
    """
    if outer.kind == "affine" and inner.kind == "affine":
        return Deformation.from_affine(outer.affine.compose(inner.affine))

    if inner.kind == "affine":
        h, w = outer.extents
        return Deformation.from_coords(inner.affine.apply(outer.coords), outer.mask_array(h, w))

    h, w = inner.extents
    if outer.kind == "dense" and outer.extents != (h, w):
        raise ValueError(f"extent mismatch: {outer.extents} vs {(h, w)}")
    q = outer.dense_coords(h, w)
    disp = inner.coords - grid_coords(h, w)
    out_coords = q + T.bilinear_sample(disp, q, border="clamp")
    valid = T.sample_validity(inner.mask_array(h, w), q.data)
    valid &= outer.mask_array(h, w)
    return Deformation.from_coords(out_coords, valid)


def warp(img: Image, d: Deformation) -> Image:
    """Pull the image back through d with a single bilinear interpolation.

    The output mask is the AND of d's own mask and a strict lookup of the
    image mask: a pixel stays valid only if every interpolation corner that
    carries weight is in bounds and valid.
    """
    h, w = img.extents
    if d.kind == "dense" and d.extents != (h, w):
        raise ValueError(f"extent mismatch: image {(h, w)} vs deformation {d.extents}")
    coords = d.dense_coords(h, w)
    data = T.bilinear_sample(img.data, coords, border="zeros")
    valid = T.sample_validity(img.mask, coords.data)
    valid &= d.mask_array(h, w)
    return Image(data, valid)


# -- derivative fields -------------------------------------------------------------------


def forward_diffs(t: Tensor):
    """Forward differences of a (..., H, W) field along y and along x, both
    on the (H-1, W-1) interior where each exists without edge padding."""
    base = t[..., :-1, :-1]
    return t[..., 1:, :-1] - base, t[..., :-1, 1:] - base


def _resolve_extents(ds, h: int | None, w: int | None, what: str):
    """The (h, w) grid on which to evaluate the deformations ``ds``: that of
    the dense ones, which must agree with each other and with any explicit
    extents. Affine deformations have none, so they need explicit ones."""
    for d in ds:
        if d.kind == "dense":
            if h is None:
                h, w = d.extents
            elif d.extents != (h, w):
                raise ValueError(f"deformation extents {d.extents} != {(h, w)}")
    if h is None or w is None:
        raise ValueError(f"{what} of an affine deformation needs explicit extents (h, w)")
    return h, w


def jacobian_field(d: Deformation, h: int | None = None, w: int | None = None) -> Tensor:
    """Local Jacobians (2, 2, H-1, W-1) on the interior: J[k, j] = d d_k / d x_j
    by forward differences."""
    h, w = _resolve_extents((d,), h, w, "the Jacobian field")
    if h < 2 or w < 2:
        raise ValueError("extent too small for derivatives")
    return T.stack(forward_diffs(d.dense_coords(h, w)), axis=1)


# -- simulated deformations -----------------------------------------------------------


@dataclass
class SimDeformParams:
    """Per-dimension (lo, hi) ranges; lo == hi gives constant parameters.

    ``base_size`` anchors the pixel-unit values: when used at another image
    size, translations and elastic parameters scale linearly while rotations
    stay fixed.
    """

    translation: tuple  # ((lo, hi), (lo, hi)) pixels
    rotation_deg: tuple  # (lo, hi)
    mu: tuple
    sigma: tuple
    m: tuple
    random: bool = True
    base_size: int = 400

    def scaled(self, size: int) -> "SimDeformParams":
        f = size / self.base_size

        def sc(rr):
            return tuple((lo * f, hi * f) for lo, hi in rr)

        return SimDeformParams(
            translation=sc(self.translation),
            rotation_deg=self.rotation_deg,
            mu=sc(self.mu),
            sigma=sc(self.sigma),
            m=sc(self.m),
            random=self.random,
            base_size=size,
        )


PRESETS = {
    "LR": SimDeformParams(((-15, 15), (-15, 15)), (-15, 15), ((0, 400), (0, 400)), ((40, 120), (40, 120)), ((-20, 20), (-20, 20)), random=True),
    "SR": SimDeformParams(((-1.5, 1.5), (-1.5, 1.5)), (-1.5, 1.5), ((0, 400), (0, 400)), ((40, 120), (40, 120)), ((-2.0, 2.0), (-2.0, 2.0)), random=True),
    "LC": SimDeformParams(((10, 10), (-10, -10)), (10, 10), ((120, 120), (280, 280)), ((60, 60), (80, 80)), ((20, 20), (-20, -20)), random=False),
    "SC": SimDeformParams(((1, 1), (-1, -1)), (-1, -1), ((120, 120), (280, 280)), ((60, 60), (80, 80)), ((2, 2), (-2, -2)), random=False),
}


@dataclass
class SimulatedDeformation:
    """A drawn rigid + elastic deformation with enough structure kept around
    to form its closed-form-ish inverse (rigid inverse, negated field)."""

    deformation: Deformation
    rigid: Deformation
    rigid_params: RigidParams
    velocity: Svf

    def inverse(self) -> Deformation:
        return compose(svf_exp(-self.velocity), self.rigid.inverse_affine())


def _draw(rng, rr, random):
    lo, hi = rr
    if not random or lo == hi:
        return float(lo)
    return float(rng.uniform(lo, hi))


def simulate_deformation(p: SimDeformParams, rng: np.random.Generator, h: int, w: int) -> SimulatedDeformation:
    """Rigid motion composed with an exponentiated Gaussian velocity bump."""
    ty = _draw(rng, p.translation[0], p.random)
    tx = _draw(rng, p.translation[1], p.random)
    rot = math.radians(_draw(rng, p.rotation_deg, p.random))
    mu = (_draw(rng, p.mu[0], p.random), _draw(rng, p.mu[1], p.random))
    sigma = (_draw(rng, p.sigma[0], p.random), _draw(rng, p.sigma[1], p.random))
    m = (_draw(rng, p.m[0], p.random), _draw(rng, p.m[1], p.random))

    params = RigidParams(rot, (ty, tx), ((h - 1) / 2.0, (w - 1) / 2.0))
    rigid = rigid_to_deformation(params)
    v = gaussian_svf(mu, sigma, m, h, w)
    elastic = svf_exp(v)
    return SimulatedDeformation(compose(rigid, elastic), rigid, params, v)
