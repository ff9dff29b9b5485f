"""Toy teacher manufacture, the bank contract, and teacher checkpoint I/O."""

import numpy as np
import pytest

from fusekd import checkpoint as ckpt
from fusekd import data as dat
from fusekd import fusion
from fusekd import teachers as tch
from fusekd.vit import ViTConfig, ViTEncoder

CFG = ViTConfig(image_size=16, patch_size=4, depth=2, embed_dim=32, num_heads=2)
SMALL_CFG = ViTConfig(image_size=16, patch_size=4, depth=1, embed_dim=8, num_heads=2)


@pytest.fixture(scope="module")
def images():
    return dat.generate(128, seed=9).float_images()


# pinned weight digest and float.hex history of each trainer: 100 images at
# batch size 33 leave a ragged last batch of one
GOLDEN_TRAINERS = {
    "masked-reconstruction": (
        tch.train_masked_reconstruction,
        "09b884c274e5a68ba8e951ee2eb29f92a769f400cf3f6ed5c391075530b5d64e",
        ["0x1.83403b372e9cfp-3", "0x1.75c2210a1d16cp-3"],
    ),
    "instance-contrastive": (
        tch.train_instance_contrastive,
        "cbb29e5db266ae78b305338bc0f05078e8e56df07ba5e67b77122c2666f34e76",
        ["0x1.4a649556e8dcdp+1", "0x1.472bdea5892c4p+1"],
    ),
}


class TestMakeToyTeacher:
    def test_random_frozen_equals_seeded_init(self):
        enc = tch.make_toy_teacher(3, "random-frozen", config=CFG)
        ref = ViTEncoder(CFG, seed=3)
        assert enc.frozen
        for (n1, t1), (_, t2) in zip(enc.named_tensors(), ref.named_tensors()):
            np.testing.assert_array_equal(t1.array, t2.array)

    def test_flavors_diverge_from_same_seed(self, images):
        a = tch.make_toy_teacher(0, "masked-reconstruction", images, SMALL_CFG, epochs=2)
        b = tch.make_toy_teacher(0, "instance-contrastive", images, SMALL_CFG, epochs=2)
        c = tch.make_toy_teacher(0, "random-frozen", config=SMALL_CFG)
        def l2(x, y):
            return sum(
                float(((t1.array - t2.array) ** 2).sum())
                for (_, t1), (_, t2) in zip(x.named_tensors(), y.named_tensors())
            )
        assert l2(a, b) > 0.0
        assert l2(a, c) > 0.0
        assert l2(b, c) > 0.0

    def test_training_reduces_reconstruction_loss(self, images):
        _, hist = tch.train_masked_reconstruction(images, SMALL_CFG, seed=0, epochs=3)
        assert hist[-1] < hist[0]

    def test_training_reduces_contrastive_loss(self, images):
        _, hist = tch.train_instance_contrastive(images, SMALL_CFG, seed=0, epochs=3)
        assert hist[-1] < hist[0]

    @pytest.mark.parametrize("flavor", sorted(GOLDEN_TRAINERS))
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(epochs=-3), "epochs"),
            (dict(batch_size=0), "batch_size"),
            (dict(images=np.zeros((0, 3, 16, 16))), "image"),
        ],
        ids=["negative-epochs", "zero-batch", "no-images"],
    )
    def test_bad_budget_rejected_before_any_update(
        self, images, monkeypatch, flavor, kwargs, match
    ):
        calls = []
        monkeypatch.setattr(tch.optim, "adamw_step", lambda *args: calls.append(args))
        fit = GOLDEN_TRAINERS[flavor][0]
        with pytest.raises(ValueError, match=match):
            fit(**{"images": images, "config": SMALL_CFG, "seed": 0, **kwargs})
        assert calls == []

    @pytest.mark.parametrize("flavor", sorted(GOLDEN_TRAINERS))
    def test_images_off_the_config_size_rejected_before_any_encoder(self, monkeypatch, flavor):
        def refuse(*args, **kwargs):
            raise AssertionError("an encoder was built for mismatched images")

        monkeypatch.setattr(tch, "ViTEncoder", refuse)
        wide = np.zeros((4, 3, 8, 16))
        with pytest.raises(ValueError, match=r"\(4, 3, 8, 16\).*\(n, 3, 16, 16\)"):
            tch.make_toy_teacher(0, flavor, wide, SMALL_CFG)

    def test_unknown_flavor_rejected(self, images):
        with pytest.raises(ValueError, match="flavor"):
            tch.make_toy_teacher(0, "supervised", images, SMALL_CFG)

    def test_trained_teacher_is_frozen_and_headless(self, images):
        enc = tch.make_toy_teacher(0, "masked-reconstruction", images, SMALL_CFG, epochs=1)
        assert enc.frozen
        assert enc.parameters() == []
        names = [n for n, _ in enc.named_tensors()]
        assert not any("head" in n for n in names)


class TestTrainerGolden:
    @pytest.mark.parametrize("flavor", sorted(GOLDEN_TRAINERS))
    def test_weights_and_history_bytes(self, flavor):
        fit, digest, history = GOLDEN_TRAINERS[flavor]
        images = dat.generate(100, seed=9).float_images()
        enc, hist = fit(images, SMALL_CFG, seed=0, epochs=2, batch_size=33)
        assert tch.bank_digest(tch.TeacherBank([enc.freeze()], ["t"])) == digest
        assert [h.hex() for h in hist] == history


class TestReferenceBankRegression:
    def test_mim_teacher_halves_loss_within_20_epochs(self, teacher_histories):
        # regression bound measured once at seed 0 on the reference set, then
        # pinned: the masked-reconstruction toy teacher must reach < 0.5x its
        # first-epoch loss within 20 epochs (history prefix of the bank run)
        _, histories = teacher_histories
        hist = histories["masked-reconstruction"]
        assert hist[19] < 0.5 * hist[0], f"ratio {hist[19] / hist[0]:.3f}"

    def test_contrastive_teacher_loss_decreases(self, teacher_histories):
        _, histories = teacher_histories
        hist = histories["instance-contrastive"]
        assert hist[-1] < hist[0]


class TestTeacherIO:
    def test_round_trip_bit_exact(self, tmp_path, images):
        enc = tch.make_toy_teacher(1, "random-frozen", config=CFG)
        p = tmp_path / "t.dmtc"
        tch.save_teacher(enc, p, label="toy-random")
        back, label = tch.load_teacher(p)
        assert label == "toy-random"
        assert back.frozen
        assert back.config == CFG
        for (_, t1), (_, t2) in zip(back.named_tensors(), enc.named_tensors()):
            np.testing.assert_array_equal(t1.array, t2.array)

    def test_truncated_file_is_corrupt_error(self, tmp_path):
        enc = tch.make_toy_teacher(0, "random-frozen", config=SMALL_CFG)
        p = tmp_path / "t.dmtc"
        tch.save_teacher(enc, p)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(ckpt.TruncatedError):
            tch.load_teacher(p)

    def test_missing_config_is_metadata_error(self, tmp_path):
        p = tmp_path / "t.dmtc"
        ckpt.save_checkpoint(p, {"w": np.zeros(3)}, meta={"kind": "teacher"})
        with pytest.raises(ckpt.MetadataError, match="config"):
            tch.load_teacher(p)

    def test_missing_tensor_is_metadata_error(self, tmp_path):
        p = tmp_path / "t.dmtc"
        tch.save_teacher(tch.make_toy_teacher(0, "random-frozen", config=SMALL_CFG), p)
        tensors, meta = ckpt.load_checkpoint(p)
        del tensors["ln_f_b"]
        ckpt.save_checkpoint(p, tensors, meta=meta)
        with pytest.raises(ckpt.MetadataError, match="ln_f_b"):
            tch.load_teacher(p)

    @pytest.mark.parametrize("key", ["patch_size", "num_heads", "image_size"])
    def test_zero_config_size_is_metadata_error(self, tmp_path, key):
        p = tmp_path / "t.dmtc"
        tch.save_teacher(tch.make_toy_teacher(0, "random-frozen", config=SMALL_CFG), p)
        tensors, meta = ckpt.load_checkpoint(p)
        meta["config"][key] = 0
        ckpt.save_checkpoint(p, tensors, meta=meta)
        with pytest.raises(ckpt.MetadataError, match=key):
            tch.load_teacher(p)

    def test_non_teacher_checkpoint_rejected(self, tmp_path):
        p = tmp_path / "t.dmtc"
        ckpt.save_checkpoint(p, {"w": np.zeros(3)}, meta={"kind": "other"})
        with pytest.raises(ckpt.MetadataError):
            tch.load_teacher(p)


class TestBank:
    def _bank_paths(self, tmp_path, configs_seeds):
        paths = []
        for i, (cfg, seed) in enumerate(configs_seeds):
            enc = tch.make_toy_teacher(seed, "random-frozen", config=cfg)
            p = tmp_path / f"t{i}.dmtc"
            tch.save_teacher(enc, p, label=f"t{i}")
            paths.append(p)
        return paths

    def test_single_teacher_forward_matches_encode(self, tmp_path, rng):
        paths = self._bank_paths(tmp_path, [(SMALL_CFG, 0)])
        bank = tch.load_bank(paths)
        views = rng.random((2, 3, 16, 16))
        out = bank.forward_all(views)
        assert len(out) == 1
        np.testing.assert_array_equal(
            out[0].array, bank.teachers[0].encode_batch(views).array
        )

    def test_outputs_independent_of_evaluation_order(self, tmp_path, rng):
        paths = self._bank_paths(tmp_path, [(SMALL_CFG, s) for s in (0, 1, 2)])
        bank = tch.load_bank(paths)
        views = rng.random((2, 3, 16, 16))
        outs = bank.forward_all(views)
        for i in (2, 0, 1):  # re-evaluate out of order
            np.testing.assert_array_equal(
                bank.teachers[i].encode_batch(views).array, outs[i].array
            )

    def test_batch_matches_per_sample_loop(self, tmp_path, rng):
        paths = self._bank_paths(tmp_path, [(SMALL_CFG, 5)])
        bank = tch.load_bank(paths)
        views = rng.random((3, 3, 16, 16))
        batched = bank.forward_all(views)[0].array
        for i in range(3):
            single = bank.teachers[0].encode_batch(views[i][None]).array[0]
            np.testing.assert_allclose(batched[i], single, atol=1e-12, rtol=0)

    def test_identical_teachers_fuse_to_m_times_z(self, tmp_path, rng):
        paths = self._bank_paths(tmp_path, [(SMALL_CFG, 4)] * 3)
        bank = tch.load_bank(paths)
        views = rng.random((1, 3, 16, 16))
        outs = [o.array for o in bank.forward_all(views)]
        np.testing.assert_array_equal(outs[0], outs[1])
        fused = fusion.fuse_tokens(outs)
        np.testing.assert_array_equal(fused, 3.0 * outs[0])

    def test_dimension_mismatch_rejected(self, tmp_path):
        other = ViTConfig(image_size=16, patch_size=4, depth=1, embed_dim=16, num_heads=2)
        paths = self._bank_paths(tmp_path, [(SMALL_CFG, 0), (other, 0)])
        with pytest.raises(tch.BankMismatchError, match="embed_dim"):
            tch.load_bank(paths)

    def test_resolution_mismatch_rejected(self, tmp_path):
        other = ViTConfig(image_size=32, patch_size=4, depth=1, embed_dim=8, num_heads=2)
        paths = self._bank_paths(tmp_path, [(SMALL_CFG, 0), (other, 0)])
        with pytest.raises(tch.BankMismatchError, match="resolution"):
            tch.load_bank(paths)

    def test_empty_bank_rejected(self):
        with pytest.raises(tch.BankMismatchError):
            tch.TeacherBank(teachers=[], labels=[])

    def test_digest_stable(self, tmp_path, rng):
        paths = self._bank_paths(tmp_path, [(SMALL_CFG, 0)])
        bank = tch.load_bank(paths)
        before = tch.bank_digest(bank)
        bank.forward_all(rng.random((2, 3, 16, 16)))
        assert tch.bank_digest(bank) == before
