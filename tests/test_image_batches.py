"""One image-batch contract: every entry point that takes images rejects a
batch that is not a non-empty (B, 3, S, S) array with ``vit.check_images``'
one message, before any view, encoder, update or file exists."""

import numpy as np
import pytest

from fusekd import augment as aug
from fusekd import data as dat
from fusekd import optim
from fusekd import teachers as tch
from fusekd import trainer
from fusekd import vit
from fusekd.augment import AugmentConfig
from fusekd.cli import main
from fusekd.config import TrainConfig
from fusekd.fusion import Adapter
from fusekd.vit import ViTConfig, ViTEncoder

CFG = ViTConfig(image_size=16, patch_size=4, depth=1, embed_dim=8, num_heads=2)

# case -> shape of a batch that no entry point may accept at S = 16
BAD_BATCHES = {
    "empty": (0, 3, 16, 16),
    "8x16": (2, 3, 8, 16),
    "8x8": (2, 3, 8, 8),
    "one-channel": (2, 1, 16, 16),
    "3-d": (3, 16, 16),
}


def refuse(*args, **kwargs):
    raise AssertionError("got past a bad image batch")


def raised(call, *args) -> str:
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


def serve_split(monkeypatch, tmp_path, images) -> str:
    """Make ``data.load_train`` return ``images`` as the training split; the dataset path."""
    split = dat.Dataset(images.astype(np.uint8), np.zeros(len(images), np.uint8))
    monkeypatch.setattr(dat, "load_train", lambda data_dir: split)
    return str(tmp_path / "data")


# Each entry point builds what it needs from valid inputs, calls ``guard()``
# and then feeds ``images``; it returns the error text, with the dataset path
# prefixed where the entry point reads a dataset.


def encode_batch(images, tmp_path, monkeypatch, guard, capsys):
    enc = ViTEncoder(CFG, seed=0)
    guard()
    return raised(enc.encode_batch, images)


def distill_step(images, tmp_path, monkeypatch, guard, capsys):
    bank = tch.TeacherBank([ViTEncoder(CFG, seed=1).freeze()], ["t"])
    student, adapter = ViTEncoder(CFG, seed=0), Adapter.create(8, 8)
    state = optim.init_adamw(student.parameters() + adapter.parameters())
    guard()
    seeds = list(range(len(images)))
    return raised(
        trainer.distill_step, images, seeds, AugmentConfig(), bank, student, adapter, state, 1e-3
    )


def train(images, tmp_path, monkeypatch, guard, capsys):
    teacher = tmp_path / "t.dmtc"
    tch.save_teacher(ViTEncoder(CFG, seed=1).freeze(), teacher)
    data_dir = serve_split(monkeypatch, tmp_path, images)
    cfg = TrainConfig(
        student=CFG, teacher_paths=(str(teacher),), dataset=data_dir, out_dir=str(tmp_path / "out")
    )
    guard()
    return raised(trainer.train, cfg)


def make_toy_teacher(images, tmp_path, monkeypatch, guard, capsys):
    guard()
    return raised(tch.make_toy_teacher, 0, "instance-contrastive", images, CFG)


def train_masked_reconstruction(images, tmp_path, monkeypatch, guard, capsys):
    guard()
    return raised(tch.train_masked_reconstruction, images, CFG, 0)


def train_instance_contrastive(images, tmp_path, monkeypatch, guard, capsys):
    guard()
    return raised(tch.train_instance_contrastive, images, CFG, 0)


def make_teachers_cli(images, tmp_path, monkeypatch, guard, capsys):
    data_dir = serve_split(monkeypatch, tmp_path, images)
    guard()
    # random-frozen trains nothing, so only the command's own check stands guard
    argv = ["make-teachers", "--data", data_dir, "--out", str(tmp_path / "out"),
            "--flavors", "random-frozen"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("\n")
    return err[len("error: ") : -1]


ENTRY_POINTS = [
    encode_batch, distill_step, train, make_toy_teacher,
    train_masked_reconstruction, train_instance_contrastive, make_teachers_cli,
]
READS_A_DATASET = (train, make_teachers_cli)
CASES = [
    pytest.param(entry, case, id=f"{entry.__name__}-{case}")
    for entry in ENTRY_POINTS
    for case in BAD_BATCHES
    # make-teachers sizes its teachers from the data, so 8x8 images are valid there
    if (entry, case) != (make_teachers_cli, "8x8")
]


@pytest.mark.parametrize("entry, case", CASES)
def test_bad_batch_rejected_with_the_one_message(tmp_path, monkeypatch, capsys, entry, case):
    def guard():
        for owner, name in [
            (aug, "make_views"), (vit.ViTEncoder, "__init__"), (vit, "patchify"),
            (optim, "adamw_step"), (dat, "write_dmtd"), (tch, "save_teacher"),
        ]:
            monkeypatch.setattr(owner, name, refuse)

    shape = BAD_BATCHES[case]
    message = entry(np.zeros(shape), tmp_path, monkeypatch, guard, capsys)
    where = f"{tmp_path / 'data'}: " if entry in READS_A_DATASET else ""
    assert message == f"{where}expected a non-empty (B, 3, 16, 16) image batch, got {shape}"
    assert not (tmp_path / "out").exists()
