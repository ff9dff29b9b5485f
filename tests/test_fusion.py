"""Fusion sums, token-to-channel-row views, adapter, and the distillation losses."""

import inspect
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
        fmap = tokens_to_feature_map(tokens)
        assert fmap[0, 0] == 1.0
        assert fmap[0].sum() == 1.0

    def test_matches_index_oracle(self, rng):
        tokens = rng.normal(size=(5, 3))  # N=4 on a 2x2 grid, D=3
        fmap = tokens_to_feature_map(tokens)
        # each channel row lists the patch tokens in the grid's row-major order
        expect = np.array(oracles.tokens_to_map_naive(tokens.tolist(), 2, 2))
        np.testing.assert_array_equal(fmap.reshape(3, 2, 2), expect)
        assert not fmap.flags.writeable
        for c in range(3):
            for r in range(2):
                for w in range(2):
                    assert fmap[c, r * 2 + w] == tokens[1 + r * 2 + w, c]

    @pytest.mark.parametrize(
        "bad, message", [(np.nan, "non-finite"), (np.inf, "non-finite")], ids=["nan", "inf"]
    )
    def test_bad_input_errors(self, rng, bad, message):
        tokens = rng.normal(size=(5, 3))
        tokens[2, 1] = bad
        with pytest.raises(ValueError, match=message):
            tokens_to_feature_map(tokens)

    @pytest.mark.parametrize("shape", [(5, 3), (2, 5, 3)], ids=["single", "batched"])
    def test_tape_version_matches(self, rng, shape):
        tokens = rng.normal(size=shape)
        with GradTape() as tape:
            got = student_feature_map(Tensor(tokens, parameter=True)).array
            want = tokens_to_feature_map(tokens)  # a constant input: never recorded
        np.testing.assert_array_equal(got, want)
        assert len(tape) == 2  # slice, transpose


class TestFuseFeatures:
    def test_identity_and_permutation(self, rng):
        maps = [rng.normal(size=(3, 2, 2)) for _ in range(3)]
        np.testing.assert_array_equal(fuse_tokens([maps[0]]), maps[0])
        np.testing.assert_array_equal(
            fuse_tokens(maps[::-1]), fuse_tokens(maps)
        )

    def test_commutes_with_reshape(self, rng):
        tokens = [rng.normal(size=(5, 3)) for _ in range(3)]
        via_fuse_first = tokens_to_feature_map(fuse_tokens(tokens))
        via_reshape_first = fuse_tokens([tokens_to_feature_map(t) for t in tokens])
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


def _oracle_rows(tokens):
    """The oracle's (D, N) channel rows of a 2-D token matrix: a 1 x N grid."""
    return oracles.tokens_to_map_naive(tokens.tolist(), 1, len(tokens) - 1)


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
        m = rng.normal(size=(5, 3))
        assert _loss_val(spatial_fusion_loss(Tensor(m), m)) < 1e-12

    def test_closed_form_single_channel(self):
        s = np.array([[5.0], [1.0], [0.0]])  # D=1, N=2; the class token is left out
        t = np.array([[-3.0], [0.0], [1.0]])
        got = _loss_val(spatial_fusion_loss(Tensor(s), t))
        assert abs(got - (math.e - 1.0) / (math.e + 1.0)) < 1e-12

    def test_matches_naive(self, rng):
        s = rng.normal(scale=2.0, size=(5, 3))
        t = rng.normal(scale=2.0, size=(5, 3))
        got = _loss_val(spatial_fusion_loss(Tensor(s), t))
        expect = oracles.sfd_naive(_oracle_rows(s), _oracle_rows(t))
        assert abs(got - expect) < 1e-10


class TestTotalLoss:
    def test_zero_components(self, rng):
        z = rng.normal(size=(5, 4))
        assert _loss_val(total_loss(Tensor(z), z)) < 1e-12

    def test_equals_sum_of_parts_bit_exact(self, rng):
        s = rng.normal(size=(5, 4))
        t = rng.normal(size=(5, 4))
        combined = _loss_val(total_loss(Tensor(s), t))
        parts = _loss_val(token_fusion_loss(Tensor(s), t)) + _loss_val(
            spatial_fusion_loss(Tensor(s), t)
        )
        assert combined == parts

    def test_matches_oracle_sum(self, rng):
        s = rng.normal(size=(5, 4))
        t = rng.normal(size=(5, 4))
        got = _loss_val(total_loss(Tensor(s), t))
        expect = oracles.tfd_naive(s.tolist(), t.tolist()) + oracles.sfd_naive(
            _oracle_rows(s), _oracle_rows(t)
        )
        assert abs(got - expect) < 1e-10


class TestMseVariant:
    def test_zero_on_match(self, rng):
        z = rng.normal(size=(5, 4))
        assert _loss_val(mse_loss_variant(Tensor(z), z)) == 0.0

    def test_single_token_single_channel(self):
        s = np.array([[2.0]])
        t = np.array([[0.0]])
        assert _loss_val(mse_token_term(Tensor(s), t)) == 4.0

    def test_matches_naive(self, rng):
        s = rng.normal(size=(5, 4))
        t = rng.normal(size=(5, 4))
        got = _loss_val(mse_loss_variant(Tensor(s), t))
        expect = oracles.mse_token_naive(s.tolist(), t.tolist()) + oracles.mse_spatial_naive(
            _oracle_rows(s), _oracle_rows(t)
        )
        assert abs(got - expect) < 1e-12

    def test_spatial_term_rejects_2d_map(self, rng):
        # a spatial row needs a (..., N+1, D) token matrix with N >= 1 patch tokens
        for shape in [(4,), (1, 4)]:
            z = rng.normal(size=shape)
            with pytest.raises(ValueError, match=r"\(\.\.\., N\+1, D\) with N >= 1"):
                mse_spatial_term(Tensor(z), z)


# mode -> (token oracle, spatial oracle); None where the mode has no such term
MODE_ORACLES = {
    "tfd": (oracles.tfd_naive, None),
    "sfd": (None, oracles.sfd_naive),
    "tfd+sfd": (oracles.tfd_naive, oracles.sfd_naive),
    "mse": (oracles.mse_token_naive, oracles.mse_spatial_naive),
}


class TestModeLoss:
    @pytest.mark.parametrize(
        "grid",
        [pytest.param((2, 2), id="2"), pytest.param((3, 3), id="3"), pytest.param((2, 3), id="2x3")],
    )
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize(
        "mode, combined",
        [pytest.param(mode, None, id=mode) for mode in LOSS_MODES]
        + [
            pytest.param("tfd+sfd", total_loss, id="total_loss"),
            pytest.param("mse", mse_loss_variant, id="mse_loss_variant"),
        ],
    )
    def test_matches_loop_oracles(self, rng, mode, combined, m, grid):
        b, n1, d = 2, grid[0] * grid[1] + 1, 4
        teachers = [rng.normal(size=(b, n1, d)) for _ in range(m)]
        proj = rng.normal(size=(b, n1, d))
        loss, lt, ls = mode_loss(mode, Tensor(proj), fuse_tokens(teachers))
        if combined is not None:  # returns the sum only; the terms are mode_loss's
            loss = combined(Tensor(proj), fuse_tokens(teachers))
        token_oracle, spatial_oracle = MODE_ORACLES[mode]
        assert (lt is None) == (token_oracle is None)
        assert (ls is None) == (spatial_oracle is None)
        # every sample has N+1 token rows and D channel rows: the batch mean is the sample mean
        fused = [oracles.fuse_naive([t[i].tolist() for t in teachers]) for i in range(b)]
        expect = 0.0
        for term, oracle, view in (
            (lt, token_oracle, lambda rows: rows),
            (ls, spatial_oracle, lambda rows: oracles.tokens_to_map_naive(rows, *grid)),
        ):
            if oracle is not None:
                want = np.mean([oracle(view(proj[i].tolist()), view(fused[i])) for i in range(b)])
                assert abs(term.item() - want) < 1e-10
                expect += want
        assert abs(loss.item() - expect) < 1e-10

    def test_tfd_builds_no_feature_map(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("tfd must not build a feature map")

        monkeypatch.setattr(fusion, "tokens_to_feature_map", refuse)
        monkeypatch.setattr(fusion, "student_feature_map", refuse)
        teachers = [rng.normal(size=(2, 5, 4)) for _ in range(2)]
        proj = Tensor(rng.normal(size=(2, 5, 4)))
        loss, lt, ls = mode_loss("tfd", proj, fuse_tokens(teachers))
        assert ls is None and lt is loss
        assert loss.item() == token_fusion_loss(proj, fuse_tokens(teachers)).item()

    def test_unknown_mode_is_value_error(self, rng):
        z = rng.normal(size=(1, 5, 4))
        with pytest.raises(ValueError, match="loss_mode"):
            mode_loss("huber", Tensor(z), fuse_tokens([z]))

    @pytest.mark.parametrize(
        "loss",
        [
            token_fusion_loss,
            spatial_fusion_loss,
            total_loss,
            mse_token_term,
            mse_spatial_term,
            mse_loss_variant,
        ],
    )
    def test_every_loss_takes_two_token_matrices(self, loss):
        assert list(inspect.signature(loss).parameters) == ["student_tokens", "fused_tokens"]


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

        def run(order):
            return _loss_val(total_loss(s, fuse_tokens([teachers[i] for i in order])))

        base = run([0, 1, 2])
        for order in ([2, 1, 0], [1, 2, 0], [0, 2, 1]):
            assert run(order) == base

    def test_gradient_through_student_and_adapter(self, rng):
        student_tokens = Tensor(rng.normal(size=(5, 3)), parameter=True, name="tokens")
        adapter = Adapter.create(3, 4, seed=2)
        target = rng.normal(size=(5, 4))

        def fn():
            return total_loss(adapter.project(student_tokens), target)

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
