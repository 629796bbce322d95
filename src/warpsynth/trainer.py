"""Training orchestration: configuration parsing, the alternating
generator/discriminator loop, patch sampling, validation-based epoch
selection, checkpointing, and evaluation.

One training step builds the whole loss graph for one image pair on a fresh
tape: synthesis, rigid and elastic cross-modality registration of the label,
intra-modality registration of the prediction, then every enabled loss term,
one backward pass, and one Adam update of the generator-side parameters. The
discriminator (when enabled) trains in turns on detached images with its own
optimizer. Runs are deterministic given the seed: data order, simulated
transforms and noise all come from one generator whose state is checkpointed.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import fileio
from . import tensor as T
from .tensor import Adam, Tensor
from .deform import (Deformation, Image, NonFiniteField, Svf, TransformConfig, compose,
                     rigid_to_deformation, sample_equivariance_transform, svf_exp, warp)
from .losses import (LossReport, LossWeights, adversarial_losses, commutation_loss, cross_sim,
                     masked_l1, reg_cross, reg_intra, similarity_default, total_loss)
from .networks import build_models, rigid_head
from .datagen import Dataset, Sample, channel_swap
from . import metrics as M


class TrainingDiverged(RuntimeError):
    """Raised when a loss stops being finite; carries whatever history the
    run accumulated so callers can record the outcome."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


# -- configuration -----------------------------------------------------------------

_SIM_TOKENS = {"EqSim": "eq", "DefSim": "def"}
_ADV_TOKENS = {"EqAdv": "eq-adv", "DefCondAdv": "def-cond-adv", "DefUncondAdv": "def-uncond-adv"}


@dataclass
class TrainPlan:
    registration: bool
    sim_mode: str  # "eq" | "def" | "none"
    use_com: bool
    adv_mode: str | None
    augment: bool

    @property
    def needs_transform(self) -> bool:
        return self.sim_mode == "eq" or self.use_com or self.adv_mode == "eq-adv"


def parse_config_name(name: str) -> TrainPlan:
    """Decode configuration names like ``EqSim+Com`` or ``NoReg+Aug``."""
    parts = [p for p in name.split("+") if p]
    known = set(_SIM_TOKENS) | set(_ADV_TOKENS) | {"Com", "NoReg", "Aug"}
    for p in parts:
        if p not in known:
            raise ValueError(f"unknown configuration token {p!r} in {name!r}")
    registration = "NoReg" not in parts
    sims = [v for k, v in _SIM_TOKENS.items() if k in parts]
    advs = [v for k, v in _ADV_TOKENS.items() if k in parts]
    if len(sims) > 1 or len(advs) > 1:
        raise ValueError(f"conflicting tokens in {name!r}")
    use_com = "Com" in parts
    if registration:
        if not sims and not use_com:
            raise ValueError(f"{name!r}: registration configs need EqSim, DefSim or Com")
        sim_mode = sims[0] if sims else "def"
    else:
        if sims or use_com:
            raise ValueError(f"{name!r}: NoReg cannot combine with similarity/commutation tokens")
        sim_mode = "none"
    return TrainPlan(registration=registration, sim_mode=sim_mode, use_com=use_com,
                     adv_mode=advs[0] if advs else None, augment="Aug" in parts)


_LIST_FIELDS = ("features_f", "features_reg", "features_rig", "features_disc")


@dataclass
class TrainConfig:
    config: str = "EqSim+Com"
    lr_main: float = 2e-4
    lr_disc: float = 4e-4
    epochs: int = 10
    seed: int = 0
    patch_size: int = 0  # 0 trains on whole images
    valid_fraction_threshold: float = 0.40
    input_noise: float = 0.0  # fraction of the 255 dynamic range
    max_rotation_deg: float = 15.0
    ortho_rotations: bool = True
    flips: bool = True
    w_sim: float = 1.0
    w_com: float = 1.0
    w_adv: float = 1e-4
    w_reg: float = 0.1
    w_affinity: float = 1.0
    w_properness: float = 0.1
    w_orthogonality: float = 0.01
    features_f: tuple = (16, 32, 64, 64)
    features_reg: tuple = ()
    features_rig: tuple = (16, 32, 64)
    features_disc: tuple = ()
    non_saturating_gan: bool = False
    # read nowhere: every run is deterministic given the seed. Kept because
    # acceptance criterion 8 passes it, and dropping it would edit that gate.
    deterministic: bool = True
    data_manifest: str = ""
    # images are stored in [0, intensity_scale]; networks and losses see them
    # divided by this, which is the convention the unit loss weights assume
    intensity_scale: float = 255.0

    def plan(self) -> TrainPlan:
        return parse_config_name(self.config)

    def loss_weights(self) -> LossWeights:
        return LossWeights(sim=self.w_sim, com=self.w_com, adv=self.w_adv, reg=self.w_reg,
                           affinity=self.w_affinity, properness=self.w_properness,
                           orthogonality=self.w_orthogonality)

    def patch_threshold(self) -> float:
        # unconditional-adversarial training rejects any invalid pixel
        if self.plan().adv_mode == "def-uncond-adv":
            return 1.0
        return self.valid_fraction_threshold

    def to_dict(self) -> dict:
        d = asdict(self)
        for k in _LIST_FIELDS:
            d[k] = list(d[k])
        return d

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        d = dict(d)
        for k in _LIST_FIELDS:
            if k in d:
                d[k] = tuple(int(v) for v in d[k])
        return TrainConfig(**d)

    @staticmethod
    def from_kv(kv: dict) -> "TrainConfig":
        """Build from flat string key=value pairs; unknown keys are errors."""
        base = TrainConfig()
        out = {}
        for key, raw in kv.items():
            if not hasattr(base, key):
                raise ValueError(f"unknown config key {key!r}")
            cur = getattr(base, key)
            if key in _LIST_FIELDS:
                out[key] = tuple(int(v) for v in raw.replace(",", " ").split()) if raw else ()
            elif isinstance(cur, bool):
                if raw.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(f"config key {key}: expected boolean, got {raw!r}")
                out[key] = raw.lower() in ("true", "1")
            elif isinstance(cur, int):
                out[key] = int(raw)
            elif isinstance(cur, float):
                out[key] = float(raw)
            else:
                out[key] = raw
        return TrainConfig(**out)

    def to_kv(self) -> dict:
        d = self.to_dict()
        return {k: (" ".join(str(x) for x in v) if k in _LIST_FIELDS else str(v)) for k, v in d.items()}


# -- patch sampling ----------------------------------------------------------------


def sample_patch(pair, size: int, threshold: float, rng: np.random.Generator, max_retries: int = 20):
    """Uniform random window, rejection-sampled until the input-image mask is
    valid on at least ``threshold`` of the window; None when retries run out."""
    x, y = pair[0], pair[1]
    h, w = x.extents
    if size > h or size > w:
        raise ValueError(f"patch {size} larger than image {(h, w)}")
    for _ in range(max_retries):
        r0 = int(rng.integers(0, h - size + 1))
        c0 = int(rng.integers(0, w - size + 1))
        frac = float(x.mask[r0:r0 + size, c0:c0 + size].mean())
        if frac >= threshold:
            def crop(im: Image) -> Image:
                return Image(im.data[:, r0:r0 + size, c0:c0 + size],
                             im.mask[r0:r0 + size, c0:c0 + size])
            return crop(x), crop(y)
    return None


def select_best_epoch(history) -> int:
    """Index of the best (lowest) validation score within the last six
    epochs; earliest wins ties."""
    if not history:
        raise ValueError("no epochs recorded")
    window = history[-6:]
    return len(history) - len(window) + int(np.argmin(window))


# -- forward bundles ----------------------------------------------------------------


@dataclass
class RegForward:
    """Everything one registration pass produces for a sample.

    It owns the pass's velocity exponentials, each computed once on the tape;
    consumers that must not send gradient through one take ``.detached()``.
    """

    rigid: Deformation
    e_cross: Deformation  # exp(v_cross)
    e_cross_inv: Deformation  # exp(-v_cross)
    d_cross: Deformation
    y_cross: Image  # the label warped by d_cross, live for cross_sim
    y_reg: Image  # y_cross detached, for everything downstream
    v_intra: Svf
    d_intra: Deformation  # exp(-v_intra)

    def overall_deformation(self) -> Deformation:
        """Concatenation of both registration stages: the map that carries
        the prediction onto the misaligned-label grid (comparable with the
        ground-truth deformation)."""
        inv_rigid = self.rigid.inverse_affine()
        return compose(compose(inv_rigid, self.e_cross_inv.detached()), self.d_intra)


# the trainer's parameters, inputs, activations and gradients: float32 halves
# the memory traffic of every conv GEMM (Micikevicius et al. 2018 keep float32
# master weights too); what it returns to callers is float64
TRAIN_DTYPE = np.float32


def _mask_channel(img: Image) -> Tensor:
    return Tensor(img.mask.astype(TRAIN_DTYPE)[None])


class Trainer:
    def __init__(self, cfg: TrainConfig, dataset: Dataset | None,
                 in_channels: int | None = None, label_channels: int | None = None,
                 image_size: int | None = None):
        self.cfg = cfg
        self.plan = cfg.plan()
        self.weights = cfg.loss_weights()
        self.dataset = dataset
        self.tcfg = TransformConfig(cfg.max_rotation_deg, cfg.ortho_rotations, cfg.flips)

        if dataset is not None:
            in_channels = dataset.in_channels
            label_channels = dataset.label_channels
            image_size = image_size or dataset.image_size or (dataset.train[0].x.extents[0] if dataset.train else 0)
        self.in_channels, self.label_channels, self.image_size = in_channels, label_channels, image_size

        self.models = build_models(
            in_channels, label_channels, image_size, seed=cfg.seed,
            features_f=list(cfg.features_f),
            features_reg=list(cfg.features_reg) or None,
            features_rig=list(cfg.features_rig),
            features_disc=list(cfg.features_disc) or None,
            registration=self.plan.registration,
            adversarial_mode=self.plan.adv_mode)

        named = self.models.named_params()
        self.named_gen = [(n, p) for n, p in named if not n.startswith("d.")]
        self.named_disc = [(n, p) for n, p in named if n.startswith("d.")]
        self._cast_params()
        self.opt_main = Adam([p for _, p in self.named_gen], cfg.lr_main)
        self.opt_disc = Adam([p for _, p in self.named_disc], cfg.lr_disc) if self.named_disc else None

        self.rng = np.random.default_rng(cfg.seed)
        self.epoch = 0
        self.step_in_epoch = 0
        self.global_step = 0
        self.permutation = None
        self.val_history: list[float] = []
        self.val_mde_history: list[float] = []
        self._snapshots = deque(maxlen=6)
        self._last_validation = None  # samples, generator weights and MDEs it scored

    def _cast_params(self):
        """Cast to TRAIN_DTYPE every parameter whose data is not, such as one
        a caller replaced with a float64 array."""
        for _, p in self.named_gen + self.named_disc:
            if p.data.dtype != TRAIN_DTYPE:
                p.data = p.data.astype(TRAIN_DTYPE)

    # -- forward passes ---------------------------------------------------------

    def _scaled(self, img: Image) -> Image:
        """The network-side image: TRAIN_DTYPE, divided by the intensity scale."""
        return Image((img.data.data * (1.0 / self.cfg.intensity_scale)).astype(TRAIN_DTYPE), img.mask)

    def _unscaled(self, img: Image) -> Image:
        """A network-side image back in intensity units, as float64."""
        return Image(img.data.data.astype(np.float64) * self.cfg.intensity_scale, img.mask)

    def _predict_scaled(self, x_scaled: Image) -> Image:
        return Image(self.models.f.forward(x_scaled.data), x_scaled.mask)

    def _registration_forward(self, x: Image, y_tilde: Image, pred: Image) -> RegForward:
        mb = self.models
        h, w = x.extents
        reg_stack = T.concat([x.data, y_tilde.data, _mask_channel(y_tilde)])
        raw = mb.h_rig.forward(reg_stack)
        params = rigid_head(raw, mb.max_angle, mb.max_shift, ((h - 1) / 2.0, (w - 1) / 2.0))
        rigid = rigid_to_deformation(params)

        v_cross = Svf(mb.h_svf.forward(reg_stack))
        e_cross, e_cross_inv = svf_exp(v_cross), svf_exp(-v_cross)
        d_cross = compose(e_cross, rigid.detached())
        y_cross = warp(y_tilde, d_cross)
        y_reg = y_cross.detached()

        inv_disp = e_cross_inv.detached().displacement(h, w)
        g_stack = T.concat([pred.data, y_reg.data, inv_disp, _mask_channel(y_reg)])
        v_intra = Svf(mb.g_svf.forward(g_stack))
        return RegForward(rigid=rigid, e_cross=e_cross, e_cross_inv=e_cross_inv, d_cross=d_cross,
                          y_cross=y_cross, y_reg=y_reg, v_intra=v_intra, d_intra=svf_exp(-v_intra))

    # -- one optimization step -----------------------------------------------------

    def build_losses(self, x: Image, y_tilde: Image):
        """Forward passes and every enabled loss term for one pair.

        Returns (terms, report, total, d_loss): ``terms`` and their weighted
        ``total`` hold live tensors for the generator, and ``report`` their
        values; ``d_loss`` is the discriminator's own loss on detached images
        (None without adversarial training).
        """
        plan, cfg = self.plan, self.cfg
        h, w = x.extents
        x = self._scaled(x)
        y_tilde = self._scaled(y_tilde)

        if plan.augment:
            t_aug, _ = sample_equivariance_transform(self.rng, self.tcfg, h, w)
            x = warp(x, t_aug)
            y_tilde = warp(y_tilde, t_aug)
        if cfg.input_noise > 0:
            noise = self.rng.uniform(-cfg.input_noise, cfg.input_noise, size=x.data.shape)
            x = Image(x.data + Tensor(noise), x.mask)
        t = t_inv = None
        if plan.needs_transform:
            t, t_inv = sample_equivariance_transform(self.rng, self.tcfg, h, w)

        pred = self._predict_scaled(x)
        terms = {}
        empty = []  # one flag per masked comparison: no mutually valid pixel
        d_loss = None

        if not plan.registration:
            terms["sim"], e0 = masked_l1(pred, y_tilde)
            empty.append(e0)
        else:
            fw = self._registration_forward(x, y_tilde, pred)
            terms["rig_sim"], e1 = cross_sim(pred, warp(y_tilde, fw.rigid))
            terms["cross_sim"], e2 = cross_sim(pred, fw.y_cross)
            terms["cross_reg"] = reg_cross(fw.e_cross, fw.e_cross_inv, self.weights)

            x_t = warp(x, t) if plan.needs_transform else None
            pred_t = self._predict_scaled(x_t) if plan.needs_transform else None

            # f(x_t) goes back to the label's frame through compose(d_intra,
            # t_inv), for the equivariance similarity and for eq-adv alike
            d_back = (compose(fw.d_intra, t_inv)
                      if plan.sim_mode == "eq" or plan.adv_mode == "eq-adv" else None)
            if plan.sim_mode == "eq":
                # similarity_equivariance(pred_t, y_reg, d_intra, t_inv), sharing d_back
                terms["intra_sim"], e3 = masked_l1(warp(pred_t, d_back), fw.y_reg)
            else:
                terms["intra_sim"], e3 = similarity_default(pred, fw.y_reg, fw.d_intra)
            terms["intra_reg"] = reg_intra(svf_exp(fw.v_intra), fw.d_intra, fw.e_cross,
                                           fw.e_cross_inv, self.weights)
            empty += [e1, e2, e3]

            if plan.use_com:
                terms["com"], e4 = commutation_loss(pred, pred_t, t)
                empty.append(e4)

            if plan.adv_mode is not None:
                if plan.adv_mode == "eq-adv":
                    cond = x_t
                    label_adv = warp(y_tilde, compose(t, fw.d_cross.detached()))
                    pred_adv = warp(pred_t, compose(t, d_back))
                else:
                    cond = x if plan.adv_mode == "def-cond-adv" else None
                    label_adv, pred_adv = y_tilde, pred
                d_loss, terms["adv_g"] = adversarial_losses(
                    self.models.d, cond, label_adv, pred_adv, non_saturating=cfg.non_saturating_gan)

        total = total_loss(terms, self.weights)
        report = LossReport({k: v.item() for k, v in terms.items()}, total.item(), sum(empty))
        return terms, report, total, d_loss

    def generator_step(self, sample: Sample):
        """One forward/backward/update of the generator-side networks."""
        try:
            terms, report, total, d_loss = self.build_losses(sample.x, sample.y_tilde)
        except NonFiniteField as exc:
            raise TrainingDiverged(f"non-finite network output at step {self.global_step}: {exc}") from exc
        if not math.isfinite(report.total):
            raise TrainingDiverged(f"non-finite generator loss at step {self.global_step}: {report.terms}")
        self.opt_main.zero_grad()
        total.backward()
        self.opt_main.step()
        return report, d_loss

    def discriminator_step(self, d_loss: Tensor) -> float:
        """One update of the discriminator on its already-built loss (the
        generator inputs inside it are detached)."""
        value = float(d_loss.data)
        if not math.isfinite(value):
            raise TrainingDiverged(f"non-finite discriminator loss at step {self.global_step}")
        self.opt_disc.zero_grad()
        d_loss.backward()
        self.opt_disc.step()
        return value

    # -- validation -----------------------------------------------------------------

    def _validate(self, samples):
        """One forward per sample: the masked-L1 scores, and the MDEs of the
        samples with a ground-truth deformation (none without registration)."""
        scores, mdes = [], []
        with T.no_grad():
            for s in samples:
                x, y_tilde = self._scaled(s.x), self._scaled(s.y_tilde)
                pred = self._predict_scaled(x)
                if self.plan.registration:
                    fw = self._registration_forward(x, y_tilde, pred)
                    score, _ = masked_l1(warp(pred, fw.d_intra), fw.y_reg)
                    if s.d_true is not None:
                        mdes.append(M.mde(fw.overall_deformation(), s.d_true))
                else:
                    score, _ = masked_l1(pred, y_tilde)
                scores.append(float(score.data))
        return scores, mdes

    def validation_score(self, samples=None) -> float:
        """Mean masked L1 between the registered prediction and the
        registered label (plain prediction-vs-label without registration)."""
        samples = self.dataset.val if samples is None else samples
        if not samples:
            raise ValueError("empty validation set")
        scores, mdes = self._validate(samples)
        self._last_validation = (list(samples), [p.data.copy() for _, p in self.named_gen], mdes)
        return float(np.mean(scores))

    def validation_mde(self, samples=None) -> float | None:
        """Mean deformation error of the overall predicted deformation
        against the stored ground truth; None without registration.

        Reuses the MDEs of the last ``validation_score`` call when it scored
        the same sample objects with generator weights equal, array for array,
        to the current ones; otherwise runs the forward pass itself."""
        if not self.plan.registration:
            return None
        samples = self.dataset.val if samples is None else samples
        last = self._last_validation
        if (last is not None and len(last[0]) == len(samples)
                and all(a is b for a, b in zip(last[0], samples))
                and all(np.array_equal(w, p.data) for w, (_, p) in zip(last[1], self.named_gen))):
            mdes = last[2]
        else:
            _, mdes = self._validate(samples)
        return float(np.mean(mdes)) if mdes else None

    # -- checkpointing ----------------------------------------------------------------

    def _optimizers(self):
        """(checkpoint tag, optimizer, its named parameters) for each optimizer."""
        opts = (("main", self.opt_main, self.named_gen), ("disc", self.opt_disc, self.named_disc))
        return [(tag, opt, named) for tag, opt, named in opts if opt is not None]

    def _state_arrays(self):
        out = [(f"param.{n}", p.data) for n, p in self.named_gen + self.named_disc]
        for tag, opt, named in self._optimizers():
            for (n, _), m_arr, v_arr in zip(named, opt.m, opt.v):
                out += [(f"adam_{tag}.m.{n}", m_arr), (f"adam_{tag}.v.{n}", v_arr)]
        for n, st in self.models.power_states():
            if st.u is not None:
                out.append((f"power.{n}", st.u))
        if self.epoch < self.cfg.epochs:
            # a run that goes on must still find its best epoch's weights
            for ep, snap in self._snapshots:
                out += [(f"snapshot.{ep}.{n}", arr) for n, arr in snap]
        return out

    def save_checkpoint(self, stem):
        meta = {
            "config": self.cfg.to_dict(),
            "epoch": self.epoch,
            "step_in_epoch": self.step_in_epoch,
            "global_step": self.global_step,
            "permutation": self.permutation,
            "val_history": self.val_history,
            "val_mde_history": self.val_mde_history,
            "adam_step_main": self.opt_main.t,
            "adam_step_disc": self.opt_disc.t if self.opt_disc else 0,
            "rng_state": self.rng.bit_generator.state,
            "in_channels": self.in_channels,
            "label_channels": self.label_channels,
            "image_size": self.image_size,
        }
        fileio.save_checkpoint(stem, self._state_arrays(), meta)
        return stem

    def _load_state(self, arrays: dict, meta: dict):
        # the file holds float64, which represents every TRAIN_DTYPE value
        # exactly, so a save and a load give back the same bits
        named_all = dict(self.named_gen + self.named_disc)
        for n, p in named_all.items():
            arr = arrays[f"param.{n}"]
            if arr.shape != p.data.shape:
                raise ValueError(f"checkpoint parameter {n}: shape {arr.shape} != {p.data.shape}")
            p.data = arr.astype(TRAIN_DTYPE)
        for tag, opt, named in self._optimizers():
            if any(k.startswith(f"adam_{tag}.") for k in arrays):
                opt.m = [arrays[f"adam_{tag}.m.{n}"].astype(TRAIN_DTYPE) for n, _ in named]
                opt.v = [arrays[f"adam_{tag}.v.{n}"].astype(TRAIN_DTYPE) for n, _ in named]
            opt.t = int(meta[f"adam_step_{tag}"])
        for n, st in self.models.power_states():
            key = f"power.{n}"
            if key in arrays:
                st.u = arrays[key].astype(TRAIN_DTYPE)
        snapshots = {}
        for key, arr in arrays.items():
            if key.startswith("snapshot."):
                ep, n = key[len("snapshot."):].split(".", 1)
                snapshots.setdefault(int(ep), []).append((n, arr.astype(TRAIN_DTYPE)))
        self._snapshots.extend(sorted(snapshots.items()))
        self.epoch = int(meta["epoch"])
        self.step_in_epoch = int(meta["step_in_epoch"])
        self.global_step = int(meta["global_step"])
        self.permutation = meta["permutation"]
        self.val_history = list(meta["val_history"])
        self.val_mde_history = list(meta["val_mde_history"])
        self.rng.bit_generator.state = meta["rng_state"]

    @staticmethod
    def from_checkpoint(stem, dataset: Dataset | None = None) -> "Trainer":
        arrays, meta = fileio.load_checkpoint(stem)
        cfg = TrainConfig.from_dict(meta["config"])
        tr = Trainer(cfg, dataset, in_channels=meta["in_channels"],
                     label_channels=meta["label_channels"], image_size=meta["image_size"])
        tr._load_state(arrays, meta)
        return tr

    # -- the loop ----------------------------------------------------------------------

    def train(self, out_dir, max_steps: int | None = None) -> "TrainResult":
        """Run (or continue) training; write a JSON-lines loss log, per-epoch
        validation history, and a final best-epoch checkpoint.

        ``max_steps`` interrupts mid-run after that many additional steps and
        checkpoints, which together with ``from_checkpoint`` gives bit-exact
        resumption.
        """
        if self.dataset is None or not self.dataset.train:
            raise ValueError("training needs a dataset with a train split")
        self._cast_params()
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        fileio.write_config(out_dir / "resolved_config.txt", self.cfg.to_kv())
        stem = out_dir / "checkpoint"
        result = TrainResult(out_dir=str(out_dir), checkpoint=str(stem))
        steps_done = 0
        train_set = self.dataset.train
        threshold = self.cfg.patch_threshold()

        with open(out_dir / "losses.jsonl", "w") as log:
            while self.epoch < self.cfg.epochs:
                if self.permutation is None:
                    self.permutation = [int(i) for i in self.rng.permutation(len(train_set))]
                    self.step_in_epoch = 0
                while self.step_in_epoch < len(self.permutation):
                    if max_steps is not None and steps_done >= max_steps:
                        self.save_checkpoint(stem)
                        result.interrupted = True
                        result.val_history = list(self.val_history)
                        result.val_mde_history = list(self.val_mde_history)
                        return result
                    sample = train_set[self.permutation[self.step_in_epoch]]
                    if self.cfg.patch_size and self.cfg.patch_size < min(sample.x.extents):
                        pat = sample_patch((sample.x, sample.y_tilde), self.cfg.patch_size,
                                           threshold, self.rng)
                        if pat is None:
                            self.step_in_epoch += 1
                            continue
                        sample = Sample(x=pat[0], y_tilde=pat[1])
                    try:
                        report, d_loss = self.generator_step(sample)
                        if d_loss is not None:
                            report.terms["adv_d"] = self.discriminator_step(d_loss)
                    except TrainingDiverged as exc:
                        self.save_checkpoint(out_dir / "diverged_state")
                        result.diverged = True
                        result.val_history = list(self.val_history)
                        result.val_mde_history = list(self.val_mde_history)
                        exc.result = result
                        raise
                    record = {"step": self.global_step, "epoch": self.epoch,
                              "terms": report.terms, "total": report.total,
                              "empty_masks": report.empty_masks}
                    log.write(json.dumps(record) + "\n")
                    self.step_in_epoch += 1
                    self.global_step += 1
                    steps_done += 1
                self.permutation = None
                self.val_history.append(self.validation_score())
                vmde = self.validation_mde()
                if vmde is not None:
                    self.val_mde_history.append(vmde)
                self._snapshots.append((self.epoch, [(n, p.data.copy()) for n, p in
                                                     self.named_gen + self.named_disc]))
                self.epoch += 1

        best = select_best_epoch(self.val_history)
        for ep, snap in self._snapshots:
            if ep == best:
                named_all = dict(self.named_gen + self.named_disc)
                for n, arr in snap:
                    named_all[n].data = arr.copy()
                break
        self.save_checkpoint(stem)
        (out_dir / "history.json").write_text(json.dumps(
            {"val_history": self.val_history, "val_mde_history": self.val_mde_history,
             "best_epoch": best}, indent=1))
        result.val_history = list(self.val_history)
        result.val_mde_history = list(self.val_mde_history)
        result.best_epoch = best
        return result

    # -- inference / evaluation ----------------------------------------------------------

    def infer(self, x: Image, y_tilde: Image | None = None) -> dict:
        """Prediction for one input (intensity units); with a label also the
        cross- and intra-modality deformations. Every output is float64."""
        out = {}
        with T.no_grad():
            xs = self._scaled(x)
            pred = self._predict_scaled(xs)
            out["prediction"] = self._unscaled(pred)
            if y_tilde is not None and self.plan.registration:
                fw = self._registration_forward(xs, self._scaled(y_tilde), pred)
                for key, d in (("d_cross", fw.d_cross), ("d_intra", fw.d_intra),
                               ("overall", fw.overall_deformation())):
                    out[key] = Deformation.from_coords(Tensor(d.coords.data.astype(np.float64)), d.mask)
                out["y_reg"] = self._unscaled(fw.y_reg)
        return out


@dataclass
class TrainResult:
    out_dir: str
    checkpoint: str
    val_history: list = field(default_factory=list)
    val_mde_history: list = field(default_factory=list)
    best_epoch: int | None = None
    diverged: bool = False
    interrupted: bool = False


def evaluate_model(trainer: Trainer, samples, max_val: float = 255.0):
    """Synthesis and registration metrics over a sample list.

    PSNR and SSIM compare the (clipped) prediction against the aligned
    ground-truth label reconstructed by the channel swap; NMI compares input
    and prediction (geometric agreement); MDE compares the overall predicted
    deformation with the stored ground truth. All four are float64: PSNR,
    SSIM and NMI come from the prediction cast to float64, and MDE from the
    float32 overall deformation, promoted to float64 when the ground truth
    is subtracted.
    """
    report = M.MetricReport()
    rows = []
    with T.no_grad():
        for s in samples:
            xs = trainer._scaled(s.x)
            pred_s = trainer._predict_scaled(xs)
            pred = Image(np.clip(trainer._unscaled(pred_s).data.data, 0.0, max_val), pred_s.mask)
            y_true = channel_swap(s.x)
            row = {
                "psnr": M.psnr(pred, y_true, max_val),
                "ssim": M.ssim(pred, y_true, max_val),
                "nmi": M.nmi(s.x, pred),
            }
            if trainer.plan.registration and s.d_true is not None:
                fw = trainer._registration_forward(xs, trainer._scaled(s.y_tilde), pred_s)
                row["mde"] = M.mde(fw.overall_deformation(), s.d_true)
            report.add(row.get("psnr"), row.get("ssim"), row.get("nmi"), row.get("mde"))
            rows.append(row)
    return report, rows
