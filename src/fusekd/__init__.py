"""Desk-scale multi-teacher distillation engine.

Core pieces: a minimal float64 tape-autodiff (``tensor``), a plain ViT
encoder (``vit``), teacher fusion and the token/spatial KL losses
(``fusion``), paired-view augmentation (``augment``), AdamW plus the
warmup/cosine schedule (``optim``), frozen teacher banks (``teachers``),
and the training harness with probes and ablation sweeps (``trainer``).
"""

from .augment import AugmentConfig, ViewPair, make_views
from .config import ScheduleSettings, TrainConfig, load_config, parse_config, serialize_config
from .fusion import (
    Adapter,
    fuse_tokens,
    mse_loss_variant,
    spatial_fusion_loss,
    token_fusion_loss,
    tokens_to_feature_map,
    total_loss,
)
from .functional import gelu, kl_divergence, softmax
from .optim import AdamWState, adamw_step, init_adamw, lr_at
from .teachers import TeacherBank, load_bank, make_toy_teacher, save_teacher
from .tensor import GradTape, Tensor, no_tape, run_grad_check
from .trainer import distill_step, linear_probe, sweep_loss_modes, sweep_teacher_combinations, train
from .vit import ViTConfig, ViTEncoder, param_count, patchify, unpatchify

__version__ = "0.1.0"
