"""Training objectives: similarity, commutation, adversarial, registration
similarity, and the non-rigidity regularizer.

Stop-gradients are built in where the architecture requires them: the rigid
and elastic cross-registration similarities see a detached prediction, the
intra-modality losses see a detached registered label and detached
cross-registration exponentials, and the discriminator loss sees only detached
images. Masks gate every comparison; a comparison with no mutually valid
pixel contributes an exact zero and raises an "empty" flag instead of
failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .deform import Deformation, Image, Svf, compose, jacobian_field, second_derivative_field, svf_exp, warp


@dataclass
class LossWeights:
    """Term weights. ``reg`` is 0.1 for the synthetic experiment and 1.0
    otherwise; similarity and commutation weights are 1.0 everywhere."""

    sim: float = 1.0
    com: float = 1.0
    adv: float = 1e-4
    reg: float = 0.1
    affinity: float = 1.0
    properness: float = 0.1
    orthogonality: float = 0.01

    def __post_init__(self):
        for value in vars(self).values():
            if value < 0:
                raise ValueError("loss weights must be non-negative")


@dataclass
class LossReport:
    """Per-term scalar values plus the weighted total for one step."""

    terms: dict = field(default_factory=dict)
    total: float = 0.0
    empty_masks: int = 0

    def record(self, name: str, value, empty: bool = False):
        self.terms[name] = float(value.data) if isinstance(value, Tensor) else float(value)
        if empty:
            self.empty_masks += 1


def masked_l1(a: Image, b: Image):
    """Mean |a - b| over the AND of both masks (per valid pixel and channel).

    Returns ``(loss, empty)``; a fully disjoint mask pair yields a constant
    zero and ``empty=True``.
    """
    if a.extents != b.extents or a.channels != b.channels:
        raise ValueError(f"extent mismatch: {a.data.shape} vs {b.data.shape}")
    inter = a.mask & b.mask
    n = int(inter.sum())
    if n == 0:
        return Tensor(0.0), True
    gate = Tensor(np.broadcast_to(inter, a.data.shape).astype(np.float64))
    loss = T.tsum(T.absolute(a.data - b.data) * gate) * (1.0 / (n * a.channels))
    return loss, False


def similarity_default(pred: Image, label: Image, d: Deformation | None = None):
    """L1 between the (optionally deformed) prediction and the label."""
    moved = warp(pred, d) if d is not None else pred
    return masked_l1(moved, label)


def similarity_equivariance(pred_t: Image, label: Image, d: Deformation, t_inv: Deformation):
    """L1 between label and the prediction made from transformed input,
    mapped back through the composed deformation (single interpolation)."""
    return masked_l1(warp(pred_t, compose(d, t_inv)), label)


def commutation_loss(pred: Image, pred_t: Image, t: Deformation):
    """L1 between the prediction ``pred`` = f(x) warped by ``t`` and the
    prediction made from the warped input, ``pred_t`` = f(warp(x, t))."""
    return masked_l1(warp(pred, t), pred_t)


def rigid_cross_sim(pred: Image, y_tilde: Image, r: Deformation):
    """Rigid registration similarity; the prediction is treated as constant
    so only the rigid transform receives gradient."""
    return masked_l1(pred.detached(), warp(y_tilde, r))


def elastic_cross_sim(pred: Image, y_tilde: Image, d_cross: Deformation):
    """Elastic registration similarity against a detached prediction; the
    caller builds d_cross with the rigid stage already detached."""
    return masked_l1(pred.detached(), warp(y_tilde, d_cross))


# -- non-rigidity penalty ------------------------------------------------------------


def _masked_mean(t: Tensor, valid: np.ndarray):
    n = int(valid.sum())
    if n == 0:
        return Tensor(0.0)
    return T.tsum(t * Tensor(valid.astype(np.float64))) * (1.0 / n)


def nonrigidity_terms(d: Deformation, h: int | None = None, w: int | None = None):
    """Raw affinity / orthogonality / properness means over the interior.

    Derivatives come from forward differences, so the averaged region shrinks
    by one pixel (two for the affinity term) and by whatever the deformation's
    own mask removes. Orthogonality uses the squared Frobenius norm and
    properness the squared determinant residual, keeping both smooth at zero.
    """
    if d.kind == "dense":
        h, w = d.extents
    if h < 3 or w < 3:
        raise ValueError("extent too small for the non-rigidity penalty")
    mask = d.mask_array(h, w)
    m1 = mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:]
    m2 = m1[:-1, :-1] & m1[1:, :-1] & m1[:-1, 1:]

    jac = jacobian_field(d, h, w)
    ji = jac[:, :, : h - 1, : w - 1]
    j00, j01 = ji[0, 0], ji[0, 1]
    j10, j11 = ji[1, 0], ji[1, 1]

    g00 = j00 * j00 + j01 * j01
    g01 = j00 * j10 + j01 * j11
    g11 = j10 * j10 + j11 * j11
    one = Tensor(1.0)
    ortho_map = (g00 - one) * (g00 - one) + 2.0 * (g01 * g01) + (g11 - one) * (g11 - one)
    det = j00 * j11 - j01 * j10
    prop_map = (det - one) * (det - one)

    sec = second_derivative_field(d, h, w)
    si = sec[:, :, :, : h - 2, : w - 2]
    aff_map = None
    for k in range(2):
        for i in range(2):
            for j in range(2):
                term = si[k, i, j] * si[k, i, j]
                aff_map = term if aff_map is None else aff_map + term

    return {
        "affinity": _masked_mean(aff_map, m2),
        "orthogonality": _masked_mean(ortho_map, m1),
        "properness": _masked_mean(prop_map, m1),
    }


def nonrigidity(d: Deformation, w_aff: float = 1.0, w_prop: float = 0.1, w_orth: float = 0.01,
                h: int | None = None, w: int | None = None) -> Tensor:
    """Weighted non-rigidity penalty; zero for every rigid deformation."""
    t = nonrigidity_terms(d, h, w)
    return w_aff * t["affinity"] + w_orth * t["orthogonality"] + w_prop * t["properness"]


def reg_cross(v_cross: Svf, weights: LossWeights, exps=None) -> Tensor:
    """Non-rigidity of the elastic cross-registration, both directions.

    ``exps`` is the pair (exp(v_cross), exp(-v_cross)) when the caller already
    has it; by default both are computed from the velocity.
    """
    fwd, bwd = exps or (svf_exp(v_cross), svf_exp(-v_cross))
    args = (weights.affinity, weights.properness, weights.orthogonality)
    return nonrigidity(fwd, *args) + nonrigidity(bwd, *args)


def reg_intra(v_intra: Svf, v_cross: Svf, weights: LossWeights, exps=None) -> Tensor:
    """Non-rigidity of the concatenated overall elastic deformation in both
    directions; the cross-registration velocity is treated as constant.

    ``exps`` is (exp(v_intra), exp(-v_intra), exp(v_cross), exp(-v_cross))
    when the caller already has them; by default they are computed from the
    velocities. The cross pair is detached here either way.
    """
    e_intra, e_intra_inv, e_cross, e_cross_inv = exps or (
        svf_exp(v_intra), svf_exp(-v_intra), svf_exp(v_cross), svf_exp(-v_cross))
    fwd = compose(e_intra, e_cross.detached())
    bwd = compose(e_cross_inv.detached(), e_intra_inv)
    args = (weights.affinity, weights.properness, weights.orthogonality)
    return nonrigidity(fwd, *args) + nonrigidity(bwd, *args)


# -- adversarial -------------------------------------------------------------------

ADV_MODES = ("eq-adv", "def-cond-adv", "def-uncond-adv")


def adversarial_losses(d_net, x: Image, label_reg: Image, pred_reg: Image,
                       t: Deformation | None, mode: str, prob_eps: float = 1e-6,
                       non_saturating: bool = False):
    """Discriminator and generator log-likelihood losses.

    ``label_reg`` and ``pred_reg`` arrive fully composed and warped by the
    caller (detached on the registration path); for ``eq-adv`` the
    conditioning input is warped by ``t`` here. Every image fed to the
    discriminator is multiplied by the intersection of the compared masks.
    The discriminator is applied frozen for the generator term, so gradient
    reaches only the synthesis path.
    """
    if mode not in ADV_MODES:
        raise ValueError(f"unknown adversarial mode {mode!r}")
    if mode == "eq-adv":
        cond = warp(x, t)
    elif mode == "def-cond-adv":
        cond = x
    else:
        cond = None

    inter = label_reg.mask & pred_reg.mask
    if cond is not None:
        inter = inter & cond.mask
    gate_img = lambda im: im.data * Tensor(np.broadcast_to(inter, im.data.shape).astype(np.float64))

    label_feed = gate_img(label_reg.detached())
    pred_live = gate_img(pred_reg)
    pred_const = gate_img(pred_reg.detached())
    if cond is not None:
        cond_feed = gate_img(cond.detached())
        real = T.concat([cond_feed, label_feed])
        fake_live = T.concat([cond_feed, pred_live])
        fake_const = T.concat([cond_feed, pred_const])
    else:
        real, fake_live, fake_const = label_feed, pred_live, pred_const

    def prob(feed, frozen):
        logit = d_net.forward(feed, frozen=frozen)
        return T.clamp(T.sigmoid(logit[0]), prob_eps, 1.0 - prob_eps)

    p_real = prob(real, frozen=False)
    p_fake = prob(fake_const, frozen=False)
    d_loss = T.neg(T.log(p_real) + T.log(1.0 - p_fake))

    p_gen = prob(fake_live, frozen=True)
    g_loss = T.neg(T.log(p_gen)) if non_saturating else T.log(1.0 - p_gen)
    return d_loss, g_loss


# -- assembly ---------------------------------------------------------------------


def total_loss(terms: dict, weights: LossWeights, *, registration: bool = True,
               use_com: bool = False, adversarial: bool = False) -> Tensor:
    """Weighted sum of the enabled terms.

    The per-subnetwork attribution happens through the detach points inside
    the terms, not here. Raises when a term the configuration requires is
    missing.
    """
    if registration:
        required = ["rig_sim", "cross_sim", "cross_reg", "intra_sim", "intra_reg"]
    else:
        required = ["sim"]
    if use_com:
        required.append("com")
    if adversarial:
        required.append("adv_g")
    missing = [k for k in required if k not in terms]
    if missing:
        raise ValueError(f"configuration requires loss terms {missing}")

    if not registration:
        total = weights.sim * terms["sim"]
    else:
        total = weights.sim * (terms["rig_sim"] + terms["cross_sim"] + terms["intra_sim"])
        total = total + weights.reg * (terms["cross_reg"] + terms["intra_reg"])
    if use_com:
        total = total + weights.com * terms["com"]
    if adversarial:
        total = total + weights.adv * terms["adv_g"]
    return total
