"""Rules about fusekd's source as a whole."""

from source_rules import image_shape_checks, unused_public_names

# public names that no code in fusekd reads, each kept for a reason outside it
KEPT_WITHOUT_CALLER = {
    "functional.gelu": "perfbench wraps it (ROADMAP items 1 and 5)",
    "functional.gelu_grad": "perfbench wraps it (ROADMAP items 1 and 5)",
    "fusion.total_loss": "perfbench wraps it (ROADMAP items 1 and 5)",
    "fusion.mse_loss_variant": "perfbench wraps it (ROADMAP items 1 and 5)",
    "functional.kl_divergence": "the acceptance gate checks it",
    "teachers.bank_digest": "resume and eval will check it against the checkpoint (ROADMAP item 2)",
}


def test_every_public_name_has_a_caller_in_src():
    """A public module-level function, class or constant that nothing in
    fusekd reads is a test-only helper or dead code, unless listed above."""
    unused = unused_public_names()
    assert unused - KEPT_WITHOUT_CALLER.keys() == set(), "public names no fusekd code reads"
    assert KEPT_WITHOUT_CALLER.keys() - unused == set(), "listed names that fusekd now reads"


def test_check_images_is_the_only_image_batch_check():
    """A batch is a non-empty (B, 3, S, S) array in one place: a second
    hand-written copy of the check would drift from its message."""
    assert image_shape_checks() == [("vit.py", "check_images")]
