"""Fusion sums, token/map reshapes, adapter, and the distillation losses."""

import math

import numpy as np
import pytest

import oracles
from fusekd import functional as F
from fusekd import fusion
from fusekd.fusion import (
    LOSS_MODES,
    Adapter,
    fuse_tokens,
    mode_loss,
    mse_loss_variant,
    mse_spatial_term,
    mse_token_term,
    spatial_fusion_loss,
    student_feature_map,
    token_fusion_loss,
    tokens_to_feature_map,
    total_loss,
)
from fusekd.tensor import GradTape, Tensor, run_grad_check


class TestFuseTokens:
    def test_single_teacher_identity(self, rng):
        z = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(fuse_tokens([z]), z)

    def test_permutation_invariance_bit_exact(self, rng):
        mats = [rng.normal(size=(3, 4)) for _ in range(4)]
        base = fuse_tokens(mats)
        for perm in ([1, 0, 3, 2], [3, 2, 1, 0], [2, 0, 3, 1]):
            np.testing.assert_array_equal(fuse_tokens([mats[i] for i in perm]), base)

    def test_matches_naive_triple_loop_in_fixed_order(self, rng):
        mats = [rng.normal(size=(2, 2)) for _ in range(3)]
        # the implementation fixes its accumulation order by content; feed the
        # oracle the same order so the comparison is exact to the last bit
        ordered = sorted(mats, key=lambda m: m.tobytes())
        expect = np.array(oracles.fuse_naive([m.tolist() for m in ordered]))
        np.testing.assert_array_equal(fuse_tokens(mats), expect)

    def test_sum_not_mean(self, rng):
        z = rng.normal(size=(2, 2))
        np.testing.assert_array_equal(fuse_tokens([z, z]), 2.0 * z)

    def test_errors(self, rng):
        with pytest.raises(ValueError):
            fuse_tokens([])
        with pytest.raises(ValueError):
            fuse_tokens([rng.normal(size=(2, 2)), rng.normal(size=(3, 2))])

    def test_temperature_identity_for_identical_teachers(self, rng):
        # documented property: with M identical teachers the fused softmax
        # target equals softmax(M * z), exactly
        z = rng.normal(scale=3.0, size=(6, 5))
        np.testing.assert_array_equal(
            F.softmax(fuse_tokens([z, z, z])), F.softmax(3.0 * z)
        )


class TestTokensToFeatureMap:
    def test_basis_placement(self):
        tokens = np.zeros((5, 3))
        tokens[1, 0] = 1.0  # first patch token, channel 0
        fmap = tokens_to_feature_map(tokens, 2, 2)
        assert fmap[0, 0, 0] == 1.0
        assert fmap[0].sum() == 1.0

    def test_matches_index_oracle(self, rng):
        tokens = rng.normal(size=(5, 3))  # N=4, D=3
        fmap = tokens_to_feature_map(tokens, 2, 2)
        expect = np.array(oracles.tokens_to_map_naive(tokens.tolist(), 2, 2))
        np.testing.assert_array_equal(fmap, expect)
        for c in range(3):
            for r in range(2):
                for w in range(2):
                    assert fmap[c, r, w] == tokens[1 + r * 2 + w, c]

    def test_grid_mismatch_errors(self, rng):
        with pytest.raises(ValueError):
            tokens_to_feature_map(rng.normal(size=(5, 3)), 3, 2)

    @pytest.mark.parametrize("shape", [(5, 3), (2, 5, 3)], ids=["single", "batched"])
    def test_tape_version_matches(self, rng, shape):
        tokens = rng.normal(size=shape)
        with GradTape() as tape:
            got = student_feature_map(Tensor(tokens), 2, 2).array
        np.testing.assert_array_equal(got, tokens_to_feature_map(tokens, 2, 2))
        assert len(tape) == 3  # slice, reshape, transpose


class TestFuseFeatures:
    def test_identity_and_permutation(self, rng):
        maps = [rng.normal(size=(3, 2, 2)) for _ in range(3)]
        np.testing.assert_array_equal(fuse_tokens([maps[0]]), maps[0])
        np.testing.assert_array_equal(
            fuse_tokens(maps[::-1]), fuse_tokens(maps)
        )

    def test_commutes_with_reshape(self, rng):
        tokens = [rng.normal(size=(5, 3)) for _ in range(3)]
        via_fuse_first = tokens_to_feature_map(fuse_tokens(tokens), 2, 2)
        via_reshape_first = fuse_tokens(
            [tokens_to_feature_map(t, 2, 2) for t in tokens]
        )
        np.testing.assert_array_equal(via_fuse_first, via_reshape_first)


class TestAdapter:
    def test_identity_map(self, rng):
        tokens = Tensor(rng.normal(size=(5, 4)))
        out = Adapter.from_arrays(np.eye(4), np.zeros(4)).project(tokens)
        np.testing.assert_array_equal(out.array, tokens.array)

    def test_zero_weight_gives_bias_rows(self, rng):
        bias = rng.normal(size=6)
        ad = Adapter(
            weight=Tensor(np.zeros((4, 6)), parameter=True),
            bias=Tensor(bias, parameter=True),
        )
        out = ad.project(Tensor(rng.normal(size=(5, 4))))
        for row in out.array:
            np.testing.assert_array_equal(row, bias)

    def test_matches_naive_matvec(self, rng):
        ad = Adapter.create(4, 6, seed=1)
        tokens = rng.normal(size=(3, 4))
        out = ad.project(Tensor(tokens)).array
        for i in range(3):
            expect = np.zeros(6)
            for k in range(4):
                expect += tokens[i, k] * ad.weight.array[k]
            expect += ad.bias.array
            np.testing.assert_allclose(out[i], expect, atol=1e-12, rtol=0)

    def test_width_mismatch_errors(self, rng):
        with pytest.raises(ValueError):
            Adapter.create(4, 6).project(Tensor(rng.normal(size=(5, 3))))


def _loss_val(t):
    return t.item() if isinstance(t, Tensor) else float(t)


class TestTokenFusionLoss:
    def test_zero_when_student_equals_target(self, rng):
        z = rng.normal(size=(5, 4))
        assert _loss_val(token_fusion_loss(Tensor(z), z)) < 1e-12

    def test_target_shift_invariance(self, rng):
        s = rng.normal(size=(5, 4))
        t = rng.normal(size=(5, 4))
        base = _loss_val(token_fusion_loss(Tensor(s), t))
        shifted = _loss_val(token_fusion_loss(Tensor(s), t + 7.0))
        assert abs(base - shifted) < 1e-9

    def test_closed_form_two_token_case(self):
        s = np.array([[1.0, 0.0], [1.0, 0.0]])  # N=1 -> two tokens
        t = np.array([[0.0, 1.0], [0.0, 1.0]])
        expect = (math.e - 1.0) / (math.e + 1.0)
        got = _loss_val(token_fusion_loss(Tensor(s), t))
        assert abs(got - expect) < 1e-12
        assert abs(got - 0.46212) < 1e-5

    def test_matches_naive(self, rng):
        s = rng.normal(scale=2.0, size=(9, 6))
        t = rng.normal(scale=2.0, size=(9, 6))
        got = _loss_val(token_fusion_loss(Tensor(s), t))
        expect = oracles.tfd_naive(s.tolist(), t.tolist())
        assert abs(got - expect) < 1e-10

    def test_shape_mismatch_errors(self, rng):
        with pytest.raises(ValueError):
            token_fusion_loss(Tensor(rng.normal(size=(5, 4))), rng.normal(size=(4, 4)))


class TestSpatialFusionLoss:
    def test_zero_when_equal(self, rng):
        m = rng.normal(size=(3, 2, 2))
        assert _loss_val(spatial_fusion_loss(Tensor(m), m)) < 1e-12

    def test_closed_form_single_channel(self):
        s = np.array([[[1.0, 0.0]]])  # D=1, grid 1x2
        t = np.array([[[0.0, 1.0]]])
        got = _loss_val(spatial_fusion_loss(Tensor(s), t))
        assert abs(got - (math.e - 1.0) / (math.e + 1.0)) < 1e-12

    def test_matches_naive(self, rng):
        s = rng.normal(scale=2.0, size=(3, 2, 2))
        t = rng.normal(scale=2.0, size=(3, 2, 2))
        got = _loss_val(spatial_fusion_loss(Tensor(s), t))
        expect = oracles.sfd_naive(s.tolist(), t.tolist())
        assert abs(got - expect) < 1e-10


class TestTotalLoss:
    def test_zero_components(self, rng):
        z = rng.normal(size=(5, 4))
        m = tokens_to_feature_map(z, 2, 2)
        assert _loss_val(total_loss(Tensor(z), z, Tensor(m), m)) < 1e-12

    def test_equals_sum_of_parts_bit_exact(self, rng):
        s = rng.normal(size=(5, 4))
        t = rng.normal(size=(5, 4))
        sm = rng.normal(size=(4, 2, 2))
        tm = rng.normal(size=(4, 2, 2))
        combined = _loss_val(total_loss(Tensor(s), t, Tensor(sm), tm))
        parts = _loss_val(token_fusion_loss(Tensor(s), t)) + _loss_val(
            spatial_fusion_loss(Tensor(sm), tm)
        )
        assert combined == parts

    def test_matches_oracle_sum(self, rng):
        s = rng.normal(size=(5, 4))
        t = rng.normal(size=(5, 4))
        sm = rng.normal(size=(4, 2, 2))
        tm = rng.normal(size=(4, 2, 2))
        got = _loss_val(total_loss(Tensor(s), t, Tensor(sm), tm))
        expect = oracles.tfd_naive(s.tolist(), t.tolist()) + oracles.sfd_naive(
            sm.tolist(), tm.tolist()
        )
        assert abs(got - expect) < 1e-10


class TestMseVariant:
    def test_zero_on_match(self, rng):
        z = rng.normal(size=(5, 4))
        m = tokens_to_feature_map(z, 2, 2)
        assert _loss_val(mse_loss_variant(Tensor(z), z, Tensor(m), m)) == 0.0

    def test_single_token_single_channel(self):
        s = np.array([[2.0]])
        t = np.array([[0.0]])
        assert _loss_val(mse_token_term(Tensor(s), t)) == 4.0

    def test_matches_naive(self, rng):
        s = rng.normal(size=(5, 4))
        t = rng.normal(size=(5, 4))
        sm = rng.normal(size=(4, 2, 2))
        tm = rng.normal(size=(4, 2, 2))
        got = _loss_val(mse_loss_variant(Tensor(s), t, Tensor(sm), tm))
        expect = oracles.mse_token_naive(s.tolist(), t.tolist()) + oracles.mse_spatial_naive(
            sm.tolist(), tm.tolist()
        )
        assert abs(got - expect) < 1e-12

    def test_spatial_term_rejects_2d_map(self, rng):
        m = rng.normal(size=(2, 2))
        with pytest.raises(ValueError, match="feature maps"):
            mse_spatial_term(Tensor(m), m)


# mode -> (token oracle, spatial oracle); None where the mode has no such term
MODE_ORACLES = {
    "tfd": (oracles.tfd_naive, None),
    "sfd": (None, oracles.sfd_naive),
    "tfd+sfd": (oracles.tfd_naive, oracles.sfd_naive),
    "mse": (oracles.mse_token_naive, oracles.mse_spatial_naive),
}


class TestModeLoss:
    @pytest.mark.parametrize("grid", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_matches_loop_oracles(self, rng, mode, m, grid):
        b, n1, d = 2, grid * grid + 1, 4
        teachers = [rng.normal(size=(b, n1, d)) for _ in range(m)]
        proj = rng.normal(size=(b, n1, d))
        loss, lt, ls = mode_loss(mode, Tensor(proj), teachers)
        token_oracle, spatial_oracle = MODE_ORACLES[mode]
        assert (lt is None) == (token_oracle is None)
        assert (ls is None) == (spatial_oracle is None)
        # every sample has N+1 token rows and D channel rows: the batch mean is the sample mean
        fused = [oracles.fuse_naive([t[i].tolist() for t in teachers]) for i in range(b)]
        expect = 0.0
        for term, oracle, view in (
            (lt, token_oracle, lambda rows: rows),
            (ls, spatial_oracle, lambda rows: oracles.tokens_to_map_naive(rows, grid, grid)),
        ):
            if oracle is not None:
                want = np.mean([oracle(view(proj[i].tolist()), view(fused[i])) for i in range(b)])
                assert abs(term.item() - want) < 1e-10
                expect += want
        assert abs(loss.item() - expect) < 1e-10

    @pytest.mark.parametrize("mode, combined", [("tfd+sfd", total_loss), ("mse", mse_loss_variant)])
    def test_two_term_modes_equal_combined_losses_bit_exact(self, rng, mode, combined):
        teachers = [rng.normal(size=(2, 10, 4)) for _ in range(3)]
        proj = Tensor(rng.normal(size=(2, 10, 4)))
        fused = fuse_tokens(teachers)
        want = combined(
            proj, fused, student_feature_map(proj, 3, 3), tokens_to_feature_map(fused, 3, 3)
        )
        assert mode_loss(mode, proj, teachers)[0].item() == want.item()

    def test_tfd_builds_no_feature_map(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("tfd must not build a feature map")

        monkeypatch.setattr(fusion, "tokens_to_feature_map", refuse)
        monkeypatch.setattr(fusion, "student_feature_map", refuse)
        teachers = [rng.normal(size=(2, 5, 4)) for _ in range(2)]
        proj = Tensor(rng.normal(size=(2, 5, 4)))
        loss, lt, ls = mode_loss("tfd", proj, teachers)
        assert ls is None and lt is loss
        assert loss.item() == token_fusion_loss(proj, fuse_tokens(teachers)).item()

    def test_unknown_mode_is_value_error(self, rng):
        z = rng.normal(size=(1, 5, 4))
        with pytest.raises(ValueError, match="loss_mode"):
            mode_loss("huber", Tensor(z), [z])

    def test_non_square_grid_is_value_error(self, rng):
        z = rng.normal(size=(1, 6, 4))  # 5 patch tokens
        with pytest.raises(ValueError, match="grid"):
            mode_loss("sfd", Tensor(z), [z])


class TestLossInvariants:
    def test_non_negative_and_zero_iff_match(self, rng):
        for _ in range(1000):
            d = int(rng.integers(2, 8))
            n1 = int(rng.integers(2, 6))
            s = rng.normal(scale=2.0, size=(n1, d))
            t = rng.normal(scale=2.0, size=(n1, d))
            lt = _loss_val(token_fusion_loss(Tensor(s), t))
            assert lt >= 0.0
        # zero iff per-token softmax distributions agree (additive shifts absorbed)
        s = rng.normal(size=(4, 5))
        shifted = s + rng.normal(size=(4, 1))  # per-token constant shift
        assert _loss_val(token_fusion_loss(Tensor(s), shifted)) < 1e-12

    def test_total_loss_teacher_permutation_bit_exact(self, rng):
        teachers = [rng.normal(size=(5, 4)) for _ in range(3)]
        s = Tensor(rng.normal(size=(5, 4)))
        sm = student_feature_map(s, 2, 2)

        def run(order):
            toks = fuse_tokens([teachers[i] for i in order])
            fmap = fuse_tokens(
                [tokens_to_feature_map(teachers[i], 2, 2) for i in order]
            )
            return _loss_val(total_loss(s, toks, sm, fmap))

        base = run([0, 1, 2])
        for order in ([2, 1, 0], [1, 2, 0], [0, 2, 1]):
            assert run(order) == base

    def test_gradient_through_student_and_adapter(self, rng):
        student_tokens = Tensor(rng.normal(size=(5, 3)), parameter=True, name="tokens")
        adapter = Adapter.create(3, 4, seed=2)
        target = rng.normal(size=(5, 4))
        target_map = tokens_to_feature_map(target, 2, 2)

        def fn():
            proj = adapter.project(student_tokens)
            smap = student_feature_map(proj, 2, 2)
            return total_loss(proj, target, smap, target_map)

        params = [student_tokens] + adapter.parameters()
        report = run_grad_check(fn, params, tol=1e-4)
        assert report.passed, report.max_rel_error

    def test_fused_target_receives_no_gradient(self, rng):
        teacher_param = Tensor(rng.normal(size=(5, 4)), parameter=True, name="teacher")
        student = Tensor(rng.normal(size=(5, 4)), parameter=True, name="student")
        with GradTape() as tape:
            target = fuse_tokens([teacher_param.array])  # detaches: plain array
            loss = token_fusion_loss(student, target)
        g_student, g_teacher = tape.gradients(loss, [student, teacher_param])
        assert np.any(g_student != 0.0)
        np.testing.assert_array_equal(g_teacher, 0.0)
