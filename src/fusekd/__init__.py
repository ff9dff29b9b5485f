"""Desk-scale multi-teacher distillation engine.

Core pieces: a minimal float64 tape-autodiff (``tensor``), a plain ViT
encoder (``vit``), teacher fusion and the token/spatial KL losses
(``fusion``), paired-view augmentation (``augment``), AdamW plus the
warmup/cosine schedule (``optim``), frozen teacher banks (``teachers``),
and the training harness with probes and ablation sweeps (``trainer``).
Import names from these submodules, e.g. ``from fusekd import trainer``;
the package itself re-exports nothing.
"""
