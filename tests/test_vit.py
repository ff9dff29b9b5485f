"""Encoder: patchify, embedding, full forward vs the loop oracle, counts."""

import numpy as np
import pytest

import oracles
from fusekd import tensor as T
from fusekd.tensor import GradTape, run_grad_check
from fusekd.vit import ViTConfig, ViTEncoder, param_count, patchify, unpatchify

TINY = ViTConfig(image_size=16, patch_size=4, depth=2, embed_dim=8, num_heads=2)


def params_as_lists(enc):
    return {name: t.array.tolist() for name, t in enc.named_tensors()}


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(patch_size=0), "patch_size"),
            (dict(patch_size=-4), "patch_size"),
            (dict(num_heads=0), "num_heads"),
            (dict(embed_dim=0), "embed_dim"),
            (dict(image_size=0), "image_size"),
            (dict(mlp_ratio=0), "mlp_ratio"),
            (dict(depth=-1), "depth"),
        ],
        ids=["patch-0", "patch-neg", "heads-0", "width-0", "image-0", "mlp-0", "depth-neg"],
    )
    def test_non_positive_sizes_rejected(self, kwargs, field):
        base = dict(image_size=16, patch_size=4, depth=1, embed_dim=8, num_heads=2)
        with pytest.raises(ValueError, match=field):
            ViTConfig(**{**base, **kwargs})


class TestPatchify:
    def test_vitb_shape(self):
        img = np.zeros((3, 224, 224))
        out = patchify(img, 16)
        assert out.shape == (196, 768)

    def test_single_patch_equals_flat_image(self, rng):
        img = rng.random((3, 16, 16))
        out = patchify(img, 16)
        assert out.shape == (1, 768)
        np.testing.assert_array_equal(out[0], img.reshape(-1))

    def test_round_trip_bit_exact(self, rng):
        img = rng.random((3, 32, 32))
        np.testing.assert_array_equal(unpatchify(patchify(img, 8), 8, 32), img)

    def test_patch_ordering(self, rng):
        img = rng.random((3, 8, 8))
        out = patchify(img, 4)
        # grid row-major; within a patch channel-major then row-major pixels
        np.testing.assert_array_equal(out[3], img[:, 4:8, 4:8].reshape(-1))

    def test_indivisible_errors(self):
        with pytest.raises(ValueError):
            patchify(np.zeros((3, 10, 10)), 4)


class TestEmbed:
    def _zeroed(self, cfg):
        enc = ViTEncoder(cfg, seed=0)
        for _, t in enc.named_tensors():
            t.assign(np.zeros(t.shape))
        return enc

    def test_all_zero_inputs_give_zero_tokens(self):
        enc = self._zeroed(TINY)
        out = enc.embed(np.zeros((1, 3, 16, 16)))
        np.testing.assert_array_equal(out.array, 0.0)
        assert out.shape == (1, TINY.num_patches + 1, 8)

    def test_class_token_row_additive(self, rng):
        enc = ViTEncoder(TINY, seed=0)
        c = 0.7
        enc.cls_token.assign(np.full(8, c))
        out = enc.embed(np.zeros((1, 3, 16, 16)))
        np.testing.assert_allclose(
            out.array[0, 0], enc.pos_embed.array[0] + c, atol=0, rtol=0
        )

    def test_matches_naive_per_patch_oracle(self, rng):
        enc = ViTEncoder(TINY, seed=3)
        img = rng.random((3, 16, 16))
        out = enc.embed(img[None]).array[0]
        w = enc.patch_w.array
        b = enc.patch_b.array
        pos = enc.pos_embed.array
        patches = patchify(img, 4)
        for nidx in range(TINY.num_patches):
            expect = np.zeros(8)
            for k in range(48):
                expect += patches[nidx, k] * w[k]
            expect += b + pos[nidx + 1]
            np.testing.assert_allclose(out[nidx + 1], expect, atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            out[0], enc.cls_token.array + pos[0], atol=0, rtol=0
        )

    def test_shape_mismatch_errors(self):
        enc = ViTEncoder(TINY, seed=0)
        with pytest.raises(ValueError):
            enc.encode_batch(np.zeros((1, 3, 8, 8)))


class TestEncode:
    def test_depth_zero_is_final_ln_of_embed(self, rng):
        cfg = ViTConfig(image_size=16, patch_size=4, depth=0, embed_dim=8, num_heads=2)
        enc = ViTEncoder(cfg, seed=1)
        img = rng.random((3, 16, 16))
        got = enc.encode_batch(img[None]).array[0]
        embedded = enc.embed(img[None]).array[0]
        expect = np.stack(
            [
                oracles.layer_norm_1d(
                    list(row), list(enc.ln_f_g.array), list(enc.ln_f_b.array), 1e-6
                )
                for row in embedded
            ]
        )
        np.testing.assert_allclose(got, expect, atol=1e-12, rtol=0)

    def test_output_shape_contract(self, rng):
        enc = ViTEncoder(TINY, seed=0)
        out = enc.encode_batch(rng.random((5, 3, 16, 16)))
        assert out.shape == (5, TINY.num_patches + 1, TINY.embed_dim)

    def test_matches_naive_loop_transformer(self, rng):
        enc = ViTEncoder(TINY, seed=7)
        img = rng.random((3, 16, 16))
        got = enc.encode_batch(img[None]).array[0]
        expect = np.array(
            oracles.naive_encode(
                params_as_lists(enc),
                img.tolist(),
                image_size=16,
                patch_size=4,
                depth=2,
                embed_dim=8,
                num_heads=2,
            )
        )
        np.testing.assert_allclose(got, expect, atol=1e-10, rtol=0)

    def test_batched_matches_per_sample(self, rng):
        enc = ViTEncoder(TINY, seed=5)
        imgs = rng.random((4, 3, 16, 16))
        batched = enc.encode_batch(imgs).array
        for i in range(4):
            np.testing.assert_allclose(
                batched[i], enc.encode_batch(imgs[i][None]).array[0], atol=1e-12, rtol=0
            )


class TestGradients:
    def test_end_to_end_grad_check(self, rng):
        cfg = ViTConfig(image_size=16, patch_size=4, depth=2, embed_dim=8, num_heads=2)
        enc = ViTEncoder(cfg, seed=2)
        img = rng.random((1, 3, 16, 16))
        report = run_grad_check(
            lambda: T.sum_all(enc.encode_batch(img)), enc.parameters(), tol=1e-4
        )
        assert report.passed, report.max_rel_error


class TestFrozen:
    def test_frozen_encoder_has_no_parameters_and_records_nothing(self, rng):
        enc = ViTEncoder(TINY, seed=0).freeze()
        assert enc.parameters() == []
        with GradTape() as tape:
            enc.encode_batch(rng.random((1, 3, 16, 16)))
        assert len(tape) == 0

    def test_frozen_weights_reject_assignment(self):
        enc = ViTEncoder(TINY, seed=0).freeze()
        with pytest.raises(ValueError):
            enc.patch_b.assign(np.ones(8))


class TestFromArrays:
    def test_wraps_copies_in_checkpoint_order(self):
        enc = ViTEncoder(TINY, seed=3)
        arrays = {n: t.array for n, t in enc.named_tensors()}
        loaded = ViTEncoder.from_arrays(TINY, arrays)
        assert [n for n, _ in loaded.named_tensors()] == list(arrays)
        for (name, t), (_, u) in zip(enc.named_tensors(), loaded.named_tensors()):
            np.testing.assert_array_equal(u.array, t.array)
            assert u.parameter and u.array is not t.array
        named = dict(loaded.named_tensors())
        assert loaded.blocks[1]["fc2_b"] is named["b1.fc2_b"] and loaded.patch_w is named["patch_w"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: a.pop("b1.qkv_w"), "missing tensor 'b1.qkv_w'"),
            (lambda a: a.update(junk=np.zeros(2)), "unexpected tensor 'junk'"),
            (lambda a: a.update({"b2.qkv_w": np.zeros((8, 24))}), "unexpected tensor 'b2.qkv_w'"),
            (lambda a: a.update(pos_embed=np.zeros((16, 8))), "tensor 'pos_embed' has shape"),
        ],
        ids=["missing", "junk", "extra-block", "shape"],
    )
    def test_names_the_first_wrong_tensor(self, edit, message):
        arrays = {n: t.array for n, t in ViTEncoder(TINY, seed=0).named_tensors()}
        edit(arrays)
        with pytest.raises(ValueError, match=message):
            ViTEncoder.from_arrays(TINY, arrays)


class TestPermutationCoherence:
    def test_swapping_patches_and_pos_embeds_swaps_tokens(self, rng):
        cfg = ViTConfig(image_size=8, patch_size=4, depth=1, embed_dim=8, num_heads=2)
        enc_a = ViTEncoder(cfg, seed=4)
        img = rng.random((3, 8, 8))
        out_a = enc_a.encode_batch(img[None]).array[0]

        a, b = 1, 2  # patch indices to swap (grid is 2x2)
        img_swapped = img.copy()
        img_swapped[:, 0:4, 4:8] = img[:, 4:8, 0:4]
        img_swapped[:, 4:8, 0:4] = img[:, 0:4, 4:8]
        enc_b = ViTEncoder(cfg, seed=4)
        pos = enc_b.pos_embed.array.copy()
        pos[[1 + a, 1 + b]] = pos[[1 + b, 1 + a]]
        enc_b.pos_embed.assign(pos)
        out_b = enc_b.encode_batch(img_swapped[None]).array[0]

        perm = np.arange(cfg.num_patches + 1)
        perm[[1 + a, 1 + b]] = perm[[1 + b, 1 + a]]
        np.testing.assert_allclose(out_b, out_a[perm], atol=1e-10, rtol=0)


class TestParamCount:
    @pytest.mark.parametrize(
        "cfg,expected",
        [
            (ViTConfig(224, 16, 12, 192, 3), 5_524_416),  # ViT-T backbone
            (ViTConfig(224, 16, 12, 384, 6), 21_665_664),  # ViT-S backbone
            (ViTConfig(224, 16, 12, 768, 12), 85_798_656),  # ViT-B backbone
        ],
    )
    def test_standard_configs_exact(self, cfg, expected):
        assert param_count(cfg) == expected

    def test_vit_s_and_b_within_3pct_of_quoted_sizes(self):
        assert abs(param_count(ViTConfig(224, 16, 12, 384, 6)) - 22e6) / 22e6 < 0.03
        assert abs(param_count(ViTConfig(224, 16, 12, 768, 12)) - 86e6) / 86e6 < 0.03

    def test_depth_zero_hand_count(self):
        cfg = ViTConfig(image_size=16, patch_size=16, depth=0, embed_dim=8, num_heads=2)
        # patch embed 768*8+8, cls 8, pos 2*8, final LN 16
        assert param_count(cfg) == 768 * 8 + 8 + 8 + 16 + 16

    def test_huge_depth_counted_without_walking_every_block(self):
        # one ViT-T block by hand: qkv 3d^2+3d, proj d^2+d, fc1 4d^2+4d, fc2 4d^2+d, two LNs 4d
        d = 192
        block = 12 * d * d + 13 * d
        assert param_count(ViTConfig(224, 16, 10**9, d, 3)) == 5_524_416 + (10**9 - 12) * block

    def test_matches_brute_force_enumeration(self):
        for cfg in (TINY, ViTConfig(16, 4, 1, 12, 3)):
            enc = ViTEncoder(cfg, seed=0)
            assert sum(t.size for _, t in enc.named_tensors()) == param_count(cfg)
