"""Training objectives: similarity, commutation, adversarial, registration
similarity, and the non-rigidity regularizer.

Stop-gradients are built in where the architecture requires them: the rigid
and elastic cross-registration similarity sees a detached prediction, the
intra-modality losses see a detached registered label and detached
cross-registration exponentials, and the discriminator loss sees only detached
images. Masks gate every comparison; a comparison with no mutually valid
pixel contributes an exact zero and raises an "empty" flag instead of
failing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .deform import Deformation, Image, _resolve_extents, compose, forward_diffs, jacobian_field, warp


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
    """Per-term scalar values, the weighted total, and how many comparisons
    had no mutually valid pixel, for one step."""

    terms: dict
    total: float
    empty_masks: int


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


def cross_sim(pred: Image, y_tilde: Image, d: Deformation):
    """Cross-registration similarity against a detached prediction, so only
    the registration receives gradient: the rigid stage alone, or the
    elastic one, which the caller builds with the rigid stage detached."""
    return masked_l1(pred.detached(), warp(y_tilde, d))


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
    h, w = _resolve_extents((d,), h, w, "the non-rigidity penalty")
    if h < 3 or w < 3:
        raise ValueError("extent too small for the non-rigidity penalty")
    mask = d.mask_array(h, w)
    m1 = mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:]
    m2 = m1[:-1, :-1] & m1[1:, :-1] & m1[:-1, 1:]

    jac = jacobian_field(d, h, w)
    j00, j01 = jac[0, 0], jac[0, 1]
    j10, j11 = jac[1, 0], jac[1, 1]

    g00 = j00 * j00 + j01 * j01
    g01 = j00 * j10 + j01 * j11
    g11 = j10 * j10 + j11 * j11
    one = Tensor(1.0)
    ortho_map = (g00 - one) * (g00 - one) + 2.0 * (g01 * g01) + (g11 - one) * (g11 - one)
    det = j00 * j11 - j01 * j10
    prop_map = (det - one) * (det - one)

    # S[k, i, j] = d^2 d_k / dx_i dx_j, squared per derivative axis i and
    # summed in (k, i, j) order
    sq = [s * s for s in forward_diffs(jac)]
    aff_map = None
    for k in range(2):
        for i in range(2):
            for j in range(2):
                term = sq[i][k, j]
                aff_map = term if aff_map is None else aff_map + term

    return {
        "affinity": _masked_mean(aff_map, m2),
        "orthogonality": _masked_mean(ortho_map, m1),
        "properness": _masked_mean(prop_map, m1),
    }


def nonrigidity(d: Deformation, weights: LossWeights, h: int | None = None,
                w: int | None = None) -> Tensor:
    """Non-rigidity penalty weighted by ``weights``' affinity, orthogonality
    and properness; zero for every rigid deformation."""
    t = nonrigidity_terms(d, h, w)
    return (weights.affinity * t["affinity"] + weights.orthogonality * t["orthogonality"]
            + weights.properness * t["properness"])


def reg_cross(e_cross: Deformation, e_cross_inv: Deformation, weights: LossWeights) -> Tensor:
    """Non-rigidity of the elastic cross-registration in both directions,
    from its exponentials exp(v_cross) and exp(-v_cross)."""
    return nonrigidity(e_cross, weights) + nonrigidity(e_cross_inv, weights)


def reg_intra(e_intra: Deformation, e_intra_inv: Deformation, e_cross: Deformation,
              e_cross_inv: Deformation, weights: LossWeights) -> Tensor:
    """Non-rigidity of the concatenated overall elastic deformation in both
    directions, from exp(±v_intra) and exp(±v_cross); the cross pair is
    detached here, so it is treated as constant."""
    fwd = compose(e_intra, e_cross.detached())
    bwd = compose(e_cross_inv.detached(), e_intra_inv)
    return nonrigidity(fwd, weights) + nonrigidity(bwd, weights)


# -- adversarial -------------------------------------------------------------------

ADV_MODES = ("eq-adv", "def-cond-adv", "def-uncond-adv")
# discriminator probabilities are clamped this far inside (0, 1) before the log
PROB_EPS = 1e-6


def adversarial_losses(d_net, x: Image, label_reg: Image, pred_reg: Image,
                       t: Deformation | None, mode: str, non_saturating: bool = False):
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
        return T.clamp(T.sigmoid(logit[0]), PROB_EPS, 1.0 - PROB_EPS)

    p_real = prob(real, frozen=False)
    p_fake = prob(fake_const, frozen=False)
    d_loss = T.neg(T.log(p_real) + T.log(1.0 - p_fake))

    p_gen = prob(fake_live, frozen=True)
    g_loss = T.neg(T.log(p_gen)) if non_saturating else T.log(1.0 - p_gen)
    return d_loss, g_loss


# -- assembly ---------------------------------------------------------------------


# Each weight scales the sum of its terms. Terms are summed within a group,
# and the groups added, in this order; the determinism gates depend on it.
WEIGHT_GROUPS = (
    ("sim", ("sim", "rig_sim", "cross_sim", "intra_sim")),
    ("reg", ("cross_reg", "intra_reg")),
    ("com", ("com",)),
    ("adv", ("adv_g",)),
)


def total_loss(terms: dict, weights: LossWeights) -> Tensor:
    """Weighted sum of whatever terms are given.

    The per-subnetwork attribution happens through the detach points inside
    the terms, not here. Raises on a term ``WEIGHT_GROUPS`` does not name.
    """
    unknown = sorted(set(terms) - {n for _, names in WEIGHT_GROUPS for n in names})
    if unknown:
        raise ValueError(f"no weight for loss terms {unknown}")
    if not terms:
        raise ValueError("no loss terms")
    total = None
    for weight, names in WEIGHT_GROUPS:
        group = [terms[n] for n in names if n in terms]
        if group:
            part = getattr(weights, weight) * sum(group[1:], group[0])
            total = part if total is None else total + part
    return total
