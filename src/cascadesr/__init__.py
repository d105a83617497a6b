"""Cascade-trained, filter-trimmed super-resolution CNNs on numpy."""

from .data import (
    DatasetManifest,
    PatchParams,
    PatchSet,
    bicubic_resize,
    degrade,
    extract_patches,
    load_image,
    load_patches,
    save_image,
    save_patches,
)
from .evaluate import EvalReport, benchmark, infer_image, psnr, ssim
from .model import (
    LayerSpec,
    NetworkModel,
    StageLog,
    build_base_network,
    build_network,
    forward,
    insert_layers,
    load_model,
    multiply_count,
    param_count,
    save_model,
)
from .ops import (
    RngState,
    conv2d_backward,
    conv2d_forward,
    gaussian_init,
    mse_loss,
    relu_backward,
    relu_forward,
    sgd_step,
)
from .synth import make_corpus, synthetic_image
from .training import TrainConfig, cascade_train, one_shot_train, plateau_reached, run_epoch
from .trimming import (
    TrimPlan,
    cascade_trim,
    default_plan,
    filter_importance,
    importance_scores,
    one_shot_trim,
    trim_filters,
    trim_train,
)

__version__ = "0.1.0"
