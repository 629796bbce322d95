"""Deformation-equivariant cross-modality image synthesis toolkit.

Joint training of a synthesis network with rigid/elastic cross-modality and
intra-modality registration networks, driven by equivariance-encouraging
similarity, commutation, and adversarial objectives, on a small
self-contained reverse-mode autodiff core.
"""

import ctypes as _ctypes
import glob as _glob
import os as _os
import sys as _sys
import warnings as _warnings

# WARPSYNTH_THREADS sets the BLAS thread count; explicit BLAS env settings
# win over it. Results are bit-identical with 1 and 2 threads, and on a
# 2-core VM 2 threads trained NoReg+Aug 12.5% and EqSim+Com 4.7% faster
# (the latter inside the run-to-run spread; perfbench/README.md). The
# default stays 1 so that a run leaves the other cores of a small shared
# machine to the rest of its load.
_threads = _os.environ.get("WARPSYNTH_THREADS", "1")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, _threads)


def _openblas():
    """The OpenBLAS bundled with numpy's wheels, through ctypes; None if absent."""
    import numpy

    libs = _os.path.join(_os.path.dirname(_os.path.dirname(numpy.__file__)), "numpy.libs")
    paths = sorted(_glob.glob(_os.path.join(libs, "*scipy_openblas64_*")))
    return _ctypes.CDLL(paths[0]) if paths else None


# OpenBLAS reads the variables once, when numpy loads; a numpy loaded before
# this package is told the count at run time instead
if "numpy" in _sys.modules:
    _count = _os.environ["OPENBLAS_NUM_THREADS"]
    _setter = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
    if _setter is not None and _count.isdigit() and int(_count) > 0:
        _setter.argtypes = [_ctypes.c_int]
        _setter.restype = None
        _setter(int(_count))
    else:
        _warnings.warn(f"numpy was imported before warpsynth, and its BLAS thread count "
                       f"could not be set to {_count!r}", RuntimeWarning, stacklevel=2)

from . import tensor, deform, losses, networks, metrics, datagen, trainer, fileio, selfcheck
from .tensor import Tensor, no_grad, grad_check, Adam
from .deform import (Affine, Deformation, Image, Mask, RigidParams, SimDeformParams, Svf,
                     TransformConfig, compose, forward_diffs, gaussian_svf, identity_map,
                     jacobian_field, rigid_to_deformation, sample_equivariance_transform,
                     simulate_deformation, svf_exp, warp, PRESETS)
from .losses import (LossReport, LossWeights, adversarial_losses, commutation_loss, cross_sim,
                     masked_l1, nonrigidity, reg_cross, reg_intra, similarity_default,
                     similarity_equivariance, total_loss)
from .metrics import MetricReport, mde, nmi, psnr, ssim
from .networks import Encoder, EncoderSpec, ModelBundle, UNet, UnetSpec, build_models, rigid_head
from .datagen import DatasetManifest, Dataset, Sample, channel_swap, generate_dataset, load_dataset, make_pair, procedural_image
from .trainer import (TrainConfig, Trainer, TrainingDiverged, evaluate_model, sample_patch,
                      select_best_epoch)

__version__ = "0.1.0"
