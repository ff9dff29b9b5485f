"""AdamW update rule against the scalar oracle, and the LR schedule."""

import numpy as np
import pytest

import oracles
from fusekd.config import TrainConfig
from fusekd.fusion import Adapter
from fusekd.optim import ScheduleSettings, adamw_step, decay_flag, init_adamw, lr_at
from fusekd.tensor import Tensor
from fusekd.vit import ViTConfig, ViTEncoder


def make_param(value, name="p"):
    return Tensor(np.atleast_1d(np.asarray(value, dtype=np.float64)), parameter=True, name=name)


class TestAdamWStep:
    def test_first_step_closed_form(self):
        p = make_param(0.0)
        state = init_adamw([p], weight_decay=0.0)
        adamw_step([p], [np.array([1.0])], state, lr=1e-3)
        # mhat = g, vhat = g^2 on step one -> delta = -lr / (1 + eps)
        expect = -1e-3 * (1.0 / (1.0 + 1e-8))
        assert abs(p.array[0] - expect) < 1e-18

    def test_zero_gradient_leaves_param_and_decays_moments(self):
        p = make_param(0.7)
        state = init_adamw([p], weight_decay=0.0)
        adamw_step([p], [np.array([1.0])], state, lr=0.0)  # charge the moments
        m0, v0 = state.m[0].copy(), state.v[0].copy()
        before = p.array.copy()
        adamw_step([p], [np.array([0.0])], state, lr=0.0)
        np.testing.assert_array_equal(p.array, before)
        assert abs(state.m[0][0] - 0.9 * m0[0]) < 1e-18
        assert abs(state.v[0][0] - 0.999 * v0[0]) < 1e-18

    def test_non_finite_grad_leaves_state_unchanged(self):
        params = [make_param([0.5, -0.5], "a"), make_param(0.25, "b")]
        state = init_adamw(params)
        adamw_step(params, [np.array([0.1, 0.2]), np.array([0.3])], state, lr=1e-2)
        before = [p.array.copy() for p in params]
        m, v = [x.copy() for x in state.m], [x.copy() for x in state.v]
        with pytest.raises(ValueError, match="non-finite"):
            adamw_step(params, [np.array([1.0, 1.0]), np.array([np.inf])], state, lr=1e-2)
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p.array, b)
        for got, want in zip(state.m + state.v, m + v):
            np.testing.assert_array_equal(got, want)
        assert state.t == 1

    def test_overflowing_update_leaves_state_unchanged(self):
        # finite grads, but the decay term of the second parameter overflows
        params = [make_param([0.5, -0.5], "a"), make_param(1e308, "b")]
        state = init_adamw(params, weight_decay=4.0)
        before = [p.array.copy() for p in params]
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            adamw_step(params, [np.array([0.1, 0.2]), np.array([0.3])], state, lr=1.0)
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p.array, b)
        for moment in state.m + state.v:
            np.testing.assert_array_equal(moment, 0.0)
        assert state.t == 0

    def test_update_keeps_tensor_invariants(self, rng):
        # adamw_step commits its own arrays without Tensor.assign's copy
        shapes = [(3, 4), (5,), (2, 1, 3), ()]
        params = [
            Tensor(rng.normal(size=s), parameter=True, name=f"p{i}") for i, s in enumerate(shapes)
        ]
        state = init_adamw(params)
        for _ in range(2):
            adamw_step(params, [rng.normal(size=s) for s in shapes], state, lr=1e-2)
            for p, shape in zip(params, shapes):
                a = p.array
                assert type(a) is np.ndarray and a.dtype == np.float64 and a.shape == shape
                assert a.flags.c_contiguous and not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0.0

    def test_pure_decoupled_decay(self):
        p = make_param(1.0)
        state = init_adamw([p], weight_decay=0.05)
        adamw_step([p], [np.array([0.0])], state, lr=0.1)
        assert abs(p.array[0] - 0.995) < 1e-15

    def test_decay_exemption_flag(self):
        p = make_param(1.0, name="ln_g")
        state = init_adamw([p], weight_decay=0.05)
        adamw_step([p], [np.array([0.0])], state, lr=0.1)
        assert p.array[0] == 1.0

    def test_default_decay_flags_by_name(self):
        enc = ViTEncoder(ViTConfig(4, 2, 1, 4, 1), seed=0)
        params = enc.parameters() + Adapter.create(4, 8).parameters()
        assert [decay_flag(p.name) for p in params] == [
            True, False, False, False,  # patch_w, patch_b, cls_token, pos_embed
            False, False, True, False, True, False,  # b0: ln1_g, ln1_b, qkv_w, qkv_b, proj_w, proj_b
            False, False, True, False, True, False,  # b0: ln2_g, ln2_b, fc1_w, fc1_b, fc2_w, fc2_b
            False, False,  # ln_f_g, ln_f_b
            True, False,  # adapter weight, bias
        ]

    def test_errors(self):
        p = make_param([1.0, 2.0])
        state = init_adamw([p], weight_decay=0.0)
        with pytest.raises(ValueError):
            adamw_step([p], [np.array([1.0])], state, lr=1e-3)  # shape
        with pytest.raises(ValueError):
            adamw_step([p], [np.array([np.nan, 0.0])], state, lr=1e-3)
        with pytest.raises(ValueError):
            adamw_step([p], [np.zeros(2)], state, lr=-1.0)

    def test_matches_scalar_oracle_trajectories(self, rng):
        for trial in range(100):
            theta0 = float(rng.normal())
            grads = [float(g) for g in rng.normal(size=10)]
            lr = float(rng.uniform(1e-4, 1e-1))
            wd = float(rng.choice([0.0, 0.05, 0.1]))
            expect = oracles.adamw_trajectory_naive(
                theta0, grads, [lr] * 10, wd=wd
            )
            p = make_param(theta0)
            state = init_adamw([p], weight_decay=wd)
            got = []
            for g in grads:
                adamw_step([p], [np.array([g])], state, lr=lr)
                got.append(float(p.array[0]))
            for a, b in zip(got, expect):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), f"trial {trial}"

    def test_update_magnitude_approaches_lr_for_constant_gradient(self, rng):
        # lambda=0, fixed g: mhat = g and vhat = g^2 exactly, so |delta|/lr -> 1
        for g in (0.5, -2.0, 0.1):
            p = make_param(0.0)
            state = init_adamw([p], weight_decay=0.0)
            lr = 1e-3
            for _ in range(5):
                adamw_step([p], [np.array([g])], state, lr=lr)
            before = p.array[0]
            adamw_step([p], [np.array([g])], state, lr=lr)
            step = abs(p.array[0] - before)
            assert abs(step / lr - 1.0) < 1e-6
            assert np.sign(before - p.array[0]) == np.sign(g)


class TestSchedule:
    SCHED = ScheduleSettings(base_lr=1.5e-4, warmup_epochs=15)
    TOTAL_EPOCHS, STEPS_PER_EPOCH = 300, 4
    WARMUP_STEPS, TOTAL_STEPS = 15 * 4, 300 * 4

    def lr(self, step, schedule=SCHED):
        return lr_at(step, schedule, self.TOTAL_EPOCHS, self.STEPS_PER_EPOCH)

    def test_warmup_starts_at_zero(self):
        assert self.lr(0) == 0.0

    def test_base_lr_at_warmup_end(self):
        assert abs(self.lr(self.WARMUP_STEPS) - 1.5e-4) < 1e-18

    def test_floor_at_final_step(self):
        assert abs(self.lr(self.TOTAL_STEPS)) < 1e-18
        floored = ScheduleSettings(1.5e-4, 15, floor_lr=1e-6)
        assert abs(self.lr(self.TOTAL_STEPS, floored) - 1e-6) < 1e-18

    def test_continuity_at_warmup_boundary(self):
        w = self.WARMUP_STEPS
        # linear branch value approaching the boundary vs the cosine branch at it
        linear_limit = self.SCHED.base_lr * w / w
        assert abs(self.lr(w) - linear_limit) < 1e-12

    def test_monotone_decay_after_warmup(self):
        vals = [self.lr(i) for i in range(self.WARMUP_STEPS, self.TOTAL_STEPS + 1)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_errors(self):
        with pytest.raises(ValueError):
            self.lr(-1)
        with pytest.raises(ValueError):
            self.lr(self.TOTAL_STEPS + 1)

    def test_invariants(self):
        # checked when the run config is built, before a run creates anything
        def run_config(warmup_epochs, epochs):
            return TrainConfig(
                student=ViTConfig(16, 4, 1, 8, 2),
                teacher_paths=("t.dmtc",),
                dataset="data",
                out_dir="run",
                epochs=epochs,
                schedule=ScheduleSettings(1e-4, warmup_epochs),
            )

        with pytest.raises(ValueError, match="warmup_epochs"):
            run_config(10, 10)
        with pytest.raises(ValueError, match="warmup_epochs"):
            run_config(-1, 10)
        assert run_config(9, 10).schedule.warmup_epochs == 9
        assert run_config(15, 0).epochs == 0  # no schedule runs at epochs=0
