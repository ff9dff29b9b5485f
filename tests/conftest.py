import numpy as np
import pytest

from fusekd import data as dat
from fusekd import teachers as tch


@pytest.fixture(scope="session")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fusekd")


@pytest.fixture(scope="session")
def ref_data_dir(work_dir):
    """Reference synthetic benchmark: 2048 train / 512 test, seed 0."""
    d = work_dir / "data_ref"
    dat.gen_data(d, 2048, 512, seed=0)
    return d


@pytest.fixture(scope="session")
def small_data_dir(work_dir):
    """Small split for fast unit tests."""
    d = work_dir / "data_small"
    dat.gen_data(d, 96, 48, seed=1)
    return d


TEACHER_CONFIG = tch.DEFAULT_TEACHER_CONFIG
BANK_EPOCHS = 40  # bank-building budget; the 20-epoch regression pin reads the history prefix


@pytest.fixture(scope="session")
def teacher_histories(ref_data_dir, work_dir):
    """Train the reference toy bank once per session; returns (paths, histories)."""
    train_ds, _ = dat.load_splits(ref_data_dir)
    images = train_ds.float_images()
    out = work_dir / "teachers"
    out.mkdir(exist_ok=True)
    histories = {}

    enc, hist = tch.train_masked_reconstruction(
        images, TEACHER_CONFIG, seed=0, epochs=BANK_EPOCHS
    )
    enc.freeze()
    mim_path = out / "toy-mim.dmtc"
    tch.save_teacher(enc, mim_path, label="toy-mim")
    histories["masked-reconstruction"] = hist

    enc, hist = tch.train_instance_contrastive(
        images, TEACHER_CONFIG, seed=0, epochs=BANK_EPOCHS
    )
    enc.freeze()
    con_path = out / "toy-contrastive.dmtc"
    tch.save_teacher(enc, con_path, label="toy-contrastive")
    histories["instance-contrastive"] = hist

    enc = tch.make_toy_teacher(0, "random-frozen", config=TEACHER_CONFIG)
    rnd_path = out / "toy-random.dmtc"
    tch.save_teacher(enc, rnd_path, label="toy-random")

    return [str(mim_path), str(con_path), str(rnd_path)], histories


@pytest.fixture(scope="session")
def teacher_paths(teacher_histories):
    return teacher_histories[0]


@pytest.fixture
def rng():
    return np.random.default_rng(0)
