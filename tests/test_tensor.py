"""Tensor container, plain kernels, tape gradients, and the checker itself."""

import math

import numpy as np
import pytest

import oracles
from fusekd import functional as F
from fusekd import tensor as T
from fusekd.tensor import GradTape, Tensor, run_grad_check


class TestTensorContainer:
    def test_row_major_layout(self):
        t = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        # entry (i, j) of a matrix lives at flat[i * cols + j]
        flat = t.array.reshape(-1)
        assert flat[1 * 3 + 2] == 6.0
        assert flat[0 * 3 + 1] == 2.0
        assert t.shape == (2, 3)
        assert t.size == len(flat)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Tensor([1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            Tensor([np.inf, 0.0])

    def test_non_finite_primitive_output_names_the_op(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="scale"):
            T.scale(Tensor([1e308]), 10.0)

    def test_immutable_once_constructed(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.array[0] = 5.0
        with pytest.raises(AttributeError):
            t.array = np.zeros(2)

    def test_assign_parameter_only(self):
        c = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            c.assign([3.0, 4.0])
        p = Tensor([1.0, 2.0], parameter=True)
        p.assign([3.0, 4.0])
        assert p.array.tolist() == [3.0, 4.0]
        with pytest.raises(ValueError):
            p.assign([1.0, 2.0, 3.0])  # shape change
        with pytest.raises(ValueError):
            p.assign([1.0, np.nan])


class TestSoftmax:
    def test_uniform_on_constant(self):
        out = F.softmax(np.zeros(4))
        np.testing.assert_allclose(out, 0.25, rtol=0, atol=1e-15)

    def test_closed_form_two_entries(self):
        out = F.softmax(np.array([1.0, 0.0]))
        e = math.exp(1.0)
        assert abs(out[0] - e / (e + 1.0)) < 1e-12
        assert abs(out[1] - 1.0 / (e + 1.0)) < 1e-12
        assert abs(out[0] - 0.73106) < 1e-5
        assert abs(out[1] - 0.26894) < 1e-5

    def test_shift_invariance(self, rng):
        v = rng.normal(size=12)
        for c in (100.0, -100.0, 3.5):
            np.testing.assert_allclose(
                F.softmax(v + c), F.softmax(v), rtol=0, atol=1e-9
            )

    def test_sums_to_one_and_positive(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 64))
            v = rng.normal(scale=5.0, size=d)
            out = F.softmax(v)
            assert abs(out.sum() - 1.0) < 1e-9
            assert np.all(out > 0)

    def test_errors(self):
        with pytest.raises(ValueError):
            F.softmax(np.array([]))
        with pytest.raises(ValueError):
            F.softmax(np.array([0.0, -np.inf]))

    def test_matches_naive(self, rng):
        v = rng.normal(size=9)
        np.testing.assert_allclose(
            F.softmax(v), oracles.softmax_1d(list(v)), rtol=0, atol=1e-15
        )


class TestKLDivergence:
    def test_identity_is_zero(self, rng):
        p = F.softmax(rng.normal(size=8))
        assert abs(F.kl_divergence(p, p)) < 1e-12

    def test_closed_form_reversed_pair(self):
        e = math.exp(1.0)
        p = np.array([e / (e + 1.0), 1.0 / (e + 1.0)])
        q = p[::-1].copy()
        expect = (e - 1.0) / (e + 1.0)
        assert abs(F.kl_divergence(p, q) - expect) < 1e-12
        assert abs(expect - 0.46212) < 1e-5

    def test_hand_computed_value(self):
        got = F.kl_divergence([0.5, 0.5], [0.25, 0.75])
        expect = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert abs(got - expect) < 1e-15
        assert abs(got - 0.14384) < 1e-5

    def test_non_negative_on_random_pairs(self, rng):
        for _ in range(1000):
            d = int(rng.integers(2, 65))
            p = F.softmax(rng.normal(scale=3.0, size=d))
            q = F.softmax(rng.normal(scale=3.0, size=d))
            assert F.kl_divergence(p, q) >= 0.0

    def test_errors(self):
        with pytest.raises(ValueError, match="length"):
            F.kl_divergence([0.5, 0.5], [0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="non-positive"):
            F.kl_divergence([0.5, 0.5], [1.0, 0.0])
        with pytest.raises(ValueError, match="sum"):
            F.kl_divergence([0.9, 0.3], [0.5, 0.5])

    def test_matches_naive(self, rng):
        p = F.softmax(rng.normal(size=16))
        q = F.softmax(rng.normal(size=16))
        assert abs(F.kl_divergence(p, q) - oracles.kl_1d(list(p), list(q))) < 1e-15


class TestLayerNorm:
    @staticmethod
    def ln(x, gamma, beta, eps=1e-6):
        return T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), eps).array

    def test_zero_variance_maps_to_beta(self):
        out = self.ln([1.0, 1.0, 1.0], np.ones(3), np.zeros(3))
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_two_point_exact(self):
        out = self.ln([0.0, 2.0], np.ones(2), np.zeros(2), eps=0.0)
        np.testing.assert_array_equal(out, [-1.0, 1.0])

    def test_affine_postmap(self):
        out = self.ln([0.0, 2.0], np.full(2, 2.0), np.full(2, 3.0), eps=0.0)
        np.testing.assert_array_equal(out, [1.0, 5.0])

    def test_errors(self):
        with pytest.raises(ValueError):
            self.ln([1.0], np.ones(1), np.zeros(1))

    def test_matches_naive(self, rng):
        x = rng.normal(size=10)
        g = rng.normal(size=10)
        b = rng.normal(size=10)
        np.testing.assert_allclose(
            self.ln(x, g, b, 1e-6),
            oracles.layer_norm_1d(list(x), list(g), list(b), 1e-6),
            rtol=0,
            atol=1e-14,
        )


class TestGelu:
    def test_matches_scalar_oracle(self, rng):
        xs = rng.normal(scale=3.0, size=50)
        got = F.gelu(xs)
        for x, g in zip(xs, got):
            assert abs(g - oracles.gelu_scalar(float(x))) < 1e-14

    def test_known_points(self):
        assert F.gelu(np.array([0.0]))[0] == 0.0
        # erf-based form, not the tanh approximation
        assert abs(F.gelu(np.array([1.0]))[0] - 0.8413447460685429) < 1e-12


class TestTapeGradients:
    def test_unused_parameter_gets_exact_zero(self):
        x = Tensor([[1.0, 2.0]], parameter=True, name="x")
        unused = Tensor([[3.0]], parameter=True, name="unused")
        with GradTape() as tape:
            loss = T.sum_all(T.mul(x, x))
        gx, gu = tape.gradients(loss, [x, unused])
        np.testing.assert_array_equal(gx, [[2.0, 4.0]])
        np.testing.assert_array_equal(gu, [[0.0]])

    def test_gradient_shapes_match_parameters(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), parameter=True)
        b = Tensor(rng.normal(size=(3, 4)), parameter=True)
        bias = Tensor(rng.normal(size=(4,)), parameter=True)
        with GradTape() as tape:
            loss = T.sum_all(T.gelu(T.add(T.matmul(a, b), bias)))
        for p, g in zip([a, b, bias], tape.gradients(loss, [a, b, bias])):
            assert g.shape == p.shape

    def test_reuse_of_same_tensor_accumulates(self):
        x = Tensor([[2.0]], parameter=True)
        with GradTape() as tape:
            loss = T.sum_all(T.mul(x, x))  # x appears twice in one record
        (g,) = tape.gradients(loss, [x])
        assert g[0, 0] == 4.0

    def test_no_recording_outside_tape(self):
        x = Tensor([[1.0]], parameter=True)
        with GradTape() as tape:
            pass
        T.mul(x, x)  # outside the context
        assert len(tape) == 0

    def test_frozen_region_records_nothing(self):
        x = Tensor([[1.0, -1.0]], parameter=True)
        with GradTape() as tape:
            with T.no_tape():
                T.gelu(T.mul(x, x))
            loss = T.sum_all(x)
        assert len(tape) == 1
        (g,) = tape.gradients(loss, [x])
        np.testing.assert_array_equal(g, [[1.0, 1.0]])


class TestFusedKernelsMatchUnfused:
    """``linear`` and GELU's shared erf reproduce the unfused kernels bit for bit."""

    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 5, 4)], ids=["2d", "3d"])
    def test_linear_equals_add_matmul_bitwise(self, x_shape, rng):
        x = Tensor(rng.normal(size=x_shape), parameter=True)
        w = Tensor(rng.normal(size=(4, 3)), parameter=True)
        b = Tensor(rng.normal(size=(3,)), parameter=True)
        upstream = Tensor(rng.normal(size=x_shape[:-1] + (3,)))

        def forward_and_grads(op):
            with GradTape() as tape:
                out = op()
                loss = T.sum_all(T.mul(out, upstream))
            return out.array, tape.gradients(loss, [x, w, b])

        out, grads = forward_and_grads(lambda: T.linear(x, w, b))
        ref_out, ref_grads = forward_and_grads(lambda: T.add(T.matmul(x, w), b))
        np.testing.assert_array_equal(out, ref_out)
        for got, want in zip(grads, ref_grads):
            np.testing.assert_array_equal(got, want)

    def test_linear_passes_grad_check(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), parameter=True, name="x")
        w = Tensor(rng.normal(size=(4, 3)), parameter=True, name="w")
        b = Tensor(rng.normal(size=(3,)), parameter=True, name="b")
        report = run_grad_check(lambda: T.sum_all(T.gelu(T.linear(x, w, b))), [x, w, b])
        assert report.passed, report.summary()

    def test_gelu_forward_and_adjoint_equal_functional_bitwise(self, rng):
        xs = np.concatenate([np.linspace(-6.0, 6.0, 1201), rng.normal(scale=3.0, size=399)])
        args = np.abs(xs / np.sqrt(2.0))
        assert (args <= 1.0).any() and (args > 1.0).any()  # both erf branches
        x = Tensor(xs.reshape(4, -1), parameter=True)
        upstream = rng.normal(size=x.shape)
        with GradTape() as tape:
            y = T.gelu(x)
            loss = T.sum_all(T.mul(y, Tensor(upstream)))
        (g,) = tape.gradients(loss, [x])
        np.testing.assert_array_equal(y.array, F.gelu(x.array))
        np.testing.assert_array_equal(g, upstream * F.gelu_grad(x.array))


PRIMITIVE_CASES = [
    ("matmul", lambda p, q: T.sum_all(T.gelu(T.matmul(p, q))), (3, 4), (4, 2)),
    ("batched_matmul", lambda p, q: T.sum_all(T.matmul(T.reshape(p, (2, 3, 2)), q)), (3, 2, 2), (2, 5)),
    ("add_broadcast", lambda p, q: T.sum_all(T.mul(T.add(p, q), T.add(p, q))), (3, 4), (4,)),
    ("sub", lambda p, q: T.sum_all(T.mul(T.sub(p, q), T.sub(p, q))), (2, 5), (2, 5)),
    ("mul", lambda p, q: T.sum_all(T.mul(p, q)), (4, 3), (4, 3)),
    ("softmax", lambda p, q: T.sum_all(T.mul(T.softmax(p), q)), (3, 6), (3, 6)),
    ("log_softmax", lambda p, q: T.sum_all(T.mul(T.log_softmax(p), q)), (3, 6), (3, 6)),
    ("gelu", lambda p, q: T.sum_all(T.mul(T.gelu(p), q)), (5, 2), (5, 2)),
    ("scale", lambda p, q: T.sum_all(T.scale(T.mul(p, q), -2.5)), (3, 3), (3, 3)),
    ("reshape", lambda p, q: T.sum_all(T.mul(T.reshape(p, (6, 2)), T.reshape(q, (6, 2)))), (3, 4), (4, 3)),
    ("transpose", lambda p, q: T.sum_all(T.mul(T.transpose(p, (1, 0)), q)), (3, 4), (4, 3)),
    ("slice", lambda p, q: T.sum_all(T.mul(T.slice_axis(p, 1, 1, 3), q)), (3, 4), (3, 2)),
    ("concat", lambda p, q: T.sum_all(T.gelu(T.concat(p, q, 0))), (2, 3), (4, 3)),
]


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name,fn,sa,sb", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
    def test_primitive_passes_grad_check(self, name, fn, sa, sb, rng):
        a = Tensor(rng.normal(size=sa), parameter=True, name="a")
        b = Tensor(rng.normal(size=sb), parameter=True, name="b")
        report = run_grad_check(lambda: fn(a, b), [a, b], tol=1e-4)
        assert report.passed, f"{name}: {report.max_rel_error}"

    def test_kl_vs_constant_gradient(self, rng):
        a = Tensor(rng.normal(size=(3, 5)), parameter=True, name="a")
        target = rng.normal(size=(3, 5))
        report = run_grad_check(lambda: T.kl_vs_constant(a, target), [a], tol=1e-4)
        assert report.passed, report.max_rel_error

    def test_kl_vs_constant_exact_zero_gradient_at_match(self, rng):
        vals = rng.normal(size=(4, 6))
        a = Tensor(vals, parameter=True, name="a")
        with GradTape() as tape:
            loss = T.kl_vs_constant(a, vals)
        (g,) = tape.gradients(loss, [a])
        assert loss.item() == 0.0
        np.testing.assert_array_equal(g, 0.0)  # bitwise zero, not just small

    def test_kl_vs_constant_matches_composed_form(self, rng):
        vals = rng.normal(size=(4, 6))
        target = rng.normal(size=(4, 6))
        a = Tensor(vals)
        fused = T.kl_vs_constant(a, target).item()
        composed = T.sum_all(
            T.mul(
                T.softmax(a),
                T.sub(T.log_softmax(a), Tensor(F.log_softmax(target))),
            )
        ).item()
        assert abs(fused - composed) < 1e-12

    def test_layer_norm_gradients(self, rng):
        x = Tensor(rng.normal(size=(4, 6)), parameter=True, name="x")
        g = Tensor(rng.normal(size=(6,)), parameter=True, name="g")
        b = Tensor(rng.normal(size=(6,)), parameter=True, name="b")
        w = Tensor(rng.normal(size=(4, 6)))

        def fn():
            return T.sum_all(T.mul(T.layer_norm(x, g, b, 1e-6), w))

        report = run_grad_check(fn, [x, g, b], tol=1e-4)
        assert report.passed, report.max_rel_error


class TestRunGradCheck:
    def test_quadratic(self):
        theta = Tensor([3.0], parameter=True, name="theta")
        report = run_grad_check(
            lambda: T.sum_all(T.mul(theta, theta)), [theta], tol=1e-5
        )
        assert report.passed
        # analytic gradient is 6 at theta=3
        with GradTape() as tape:
            loss = T.sum_all(T.mul(theta, theta))
        (g,) = tape.gradients(loss, [theta])
        assert abs(g[0] - 6.0) < 1e-12

    def test_softmax_kl_against_fixed_target(self, rng):
        v = Tensor(rng.normal(size=(1, 4)), parameter=True, name="v")
        target = Tensor(F.log_softmax(rng.normal(size=(1, 4))))

        def fn():
            p = T.softmax(v)
            return T.sum_all(T.mul(p, T.sub(T.log_softmax(v), target)))

        report = run_grad_check(fn, [v], tol=1e-5)
        assert report.passed, report.max_rel_error

    def test_constant_function_zero_gradient(self):
        theta = Tensor([1.0, 2.0], parameter=True, name="theta")
        c = Tensor([5.0])
        report = run_grad_check(lambda: T.sum_all(c), [theta], tol=1e-8)
        assert report.passed
        assert report.max_rel_error == 0.0

    def test_nondeterministic_computation_rejected(self):
        theta = Tensor([1.0], parameter=True)

        def fn():
            return T.sum_all(Tensor(np.random.rand(1)))

        with pytest.raises(ValueError, match="deterministic"):
            run_grad_check(fn, [theta])
