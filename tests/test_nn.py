import math

import numpy as np
import pytest

from dron import nn
from dron.errors import ConfigurationError, TrainingError, UsageError


def finite_difference_grads(loss_fn, params, step=1e-5):
    """Central finite differences of loss_fn(params) w.r.t. every coordinate."""
    grads = {}
    for name, value in params.items():
        g = np.zeros_like(value)
        flat = value.ravel()
        gflat = g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            hi = loss_fn(params)
            flat[k] = orig - step
            lo = loss_fn(params)
            flat[k] = orig
            gflat[k] = (hi - lo) / (2.0 * step)
        grads[name] = g
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        n = numeric[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestForward:
    def test_zero_params_zero_output(self):
        spec = nn.MLPSpec((3, 4, 2))
        params = {name: np.zeros_like(v) for name, v in nn.init_params(spec, 0).items()}
        out, _ = nn.mlp_forward(spec, params, np.array([1.0, -2.0, 3.0]))
        assert np.all(out == 0.0)

    def test_identity_relu(self):
        spec = nn.MLPSpec((2, 2), output="relu")
        params = {"0.weight": np.eye(2), "0.bias": np.zeros(2)}
        out, _ = nn.mlp_forward(spec, params, np.array([-1.0, 2.0]))
        assert np.allclose(out, [0.0, 2.0])

    def test_matches_hand_evaluated_chain(self):
        # independent oracle: per-neuron loops over the same parameters
        spec = nn.MLPSpec((2, 3, 2))
        params = nn.init_params(spec, 42)
        x = np.array([0.7, -1.3])
        h = []
        for j in range(3):
            z = params["0.bias"][j]
            for i in range(2):
                z += x[i] * params["0.weight"][i, j]
            h.append(max(z, 0.0))
        expected = []
        for j in range(2):
            z = params["1.bias"][j]
            for i in range(3):
                z += h[i] * params["1.weight"][i, j]
            expected.append(z)
        out, _ = nn.mlp_forward(spec, params, x)
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_batch_matches_single(self):
        spec = nn.MLPSpec((4, 5, 3))
        params = nn.init_params(spec, 7)
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(6, 4))
        out_batch, _ = nn.mlp_forward(spec, params, batch)
        for row in range(6):
            single, _ = nn.mlp_forward(spec, params, batch[row])
            assert np.allclose(out_batch[row], single, rtol=0, atol=1e-12)

    def test_shape_mismatch_raises(self):
        spec = nn.MLPSpec((3, 2))
        params = nn.init_params(spec, 0)
        with pytest.raises(ConfigurationError):
            nn.mlp_forward(spec, params, np.zeros(4))

    def test_forward_is_pure(self):
        spec = nn.MLPSpec((3, 8, 2))
        params = nn.init_params(spec, 5)
        x = np.array([0.1, 0.2, 0.3])
        a, _ = nn.mlp_forward(spec, params, x)
        b, _ = nn.mlp_forward(spec, params, x)
        assert np.array_equal(a, b)


class TestBoundLayers:
    @pytest.mark.parametrize("output", ["linear", "relu", "softmax", "sigmoid"])
    def test_run_equals_mlp_forward(self, output):
        spec = nn.MLPSpec((5, 7, 6, 3), output=output)
        params = nn.init_params(spec, 4, prefix="net.")
        layers = nn.bind_mlp(spec, params, "net.")
        assert [act for _, _, act in layers] == ["relu", "relu", output]
        for x in (np.random.default_rng(1).normal(size=(1, 5)),
                  np.random.default_rng(2).normal(size=(9, 5))):
            ref, ref_cache = nn.mlp_forward(spec, params, x, "net.")
            out, none = nn.run_mlp(layers, x)
            assert none is None and out.tobytes() == ref.tobytes()
            out, cache = nn.run_mlp(layers, x, keep_cache=True)
            assert out.tobytes() == ref.tobytes() and not cache.squeeze
            for got, want in zip(cache.inputs + cache.outputs,
                                 ref_cache.inputs + ref_cache.outputs):
                assert got.tobytes() == want.tobytes()
            # a vector through mlp_forward is the one-row batch, squeezed
            vec, vec_cache = nn.mlp_forward(spec, params, x[0], "net.")
            assert vec.tobytes() == nn.run_mlp(layers, x[:1])[0][0].tobytes()
            assert vec_cache.squeeze

    def test_layers_follow_in_place_writes(self):
        spec = nn.MLPSpec((3, 2))
        params = nn.FlatParams.of(nn.init_params(spec, 0))
        layers = nn.bind_mlp(spec, params)
        params["0.bias"] = np.array([5.0, -5.0])
        params.flat[:6] = 0.0
        assert np.array_equal(nn.run_mlp(layers, np.ones((1, 3)))[0], [[5.0, -5.0]])

    def test_bind_checks_every_shape(self):
        spec = nn.MLPSpec((3, 4, 2))
        for name, shape in (("0.weight", (4, 3)), ("1.bias", (3,))):
            params = nn.init_params(spec, 0)
            params[name] = np.zeros(shape)
            with pytest.raises(ConfigurationError, match=name):
                nn.bind_mlp(spec, params)

    def test_run_checks_input_width(self):
        spec = nn.MLPSpec((3, 2))
        layers = nn.bind_mlp(spec, nn.init_params(spec, 0))
        with pytest.raises(ConfigurationError, match="input width 4"):
            nn.run_mlp(layers, np.zeros((2, 4)))


class TestBackward:
    def test_zero_output_gradient(self):
        spec = nn.MLPSpec((3, 4, 2))
        params = nn.init_params(spec, 3)
        out, cache = nn.mlp_forward(spec, params, np.ones(3))
        grads, dx = nn.mlp_backward(spec, params, cache, np.zeros_like(out))
        assert all(np.all(g == 0.0) for g in grads.values())
        assert np.all(dx == 0.0)

    def test_single_linear_layer_analytic(self):
        # y = W x; gradient of 0.5*||y - t||^2 w.r.t. W is (y - t) x^T
        spec = nn.MLPSpec((3, 2))
        rng = np.random.default_rng(11)
        params = {"0.weight": rng.normal(size=(3, 2)), "0.bias": np.zeros(2)}
        x = rng.normal(size=3)
        t = rng.normal(size=2)
        y, cache = nn.mlp_forward(spec, params, x)
        grads, _ = nn.mlp_backward(spec, params, cache, y - t)
        assert np.allclose(grads["0.weight"], np.outer(x, y - t))
        assert np.allclose(grads["0.bias"], y - t)

    def test_finite_difference_4_8_3(self):
        spec = nn.MLPSpec((4, 8, 3))
        params = nn.init_params(spec, 99)
        x = np.random.default_rng(2).normal(size=4)
        t = np.array([0.3, -0.4, 1.1])

        def loss(p):
            y, _ = nn.mlp_forward(spec, p, x)
            return float(np.sum((y - t) ** 2))

        y, cache = nn.mlp_forward(spec, params, x)
        analytic, _ = nn.mlp_backward(spec, params, cache, 2.0 * (y - t))
        numeric = finite_difference_grads(loss, params)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_random_specs_gradient_check(self):
        # spec invariant: nets with <=3 hidden layers and <=16 units
        rng = np.random.default_rng(2024)
        for trial in range(10):
            depth = rng.integers(1, 4)
            sizes = tuple(int(rng.integers(2, 17)) for _ in range(depth + 2))
            output = ["linear", "sigmoid", "softmax"][trial % 3]
            spec = nn.MLPSpec(sizes, output=output)
            params = nn.init_params(spec, int(rng.integers(1 << 30)))
            x = rng.normal(size=sizes[0])
            w = rng.normal(size=sizes[-1])  # random linear functional as loss

            def loss(p):
                y, _ = nn.mlp_forward(spec, p, x)
                return float(w @ y)

            _, cache = nn.mlp_forward(spec, params, x)
            analytic, _ = nn.mlp_backward(spec, params, cache, w)
            numeric = finite_difference_grads(loss, params)
            assert max_relative_error(analytic, numeric) <= 1e-4

    def test_input_gradient_matches_fd(self):
        spec = nn.MLPSpec((5, 6, 2))
        params = nn.init_params(spec, 17)
        rng = np.random.default_rng(3)
        x = rng.normal(size=5)
        w = rng.normal(size=2)
        _, cache = nn.mlp_forward(spec, params, x)
        _, dx = nn.mlp_backward(spec, params, cache, w)
        step = 1e-6
        for k in range(5):
            xp, xm = x.copy(), x.copy()
            xp[k] += step
            xm[k] -= step
            hi, _ = nn.mlp_forward(spec, params, xp)
            lo, _ = nn.mlp_forward(spec, params, xm)
            fd = (w @ hi - w @ lo) / (2 * step)
            assert abs(fd - dx[k]) <= 1e-4 * max(1.0, abs(fd))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(nn.softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_large_inputs_stable(self):
        out = nn.softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] > 0.999 and out[1] < 1e-6

    def test_direct_evaluation(self):
        # oracle: exp(v)/sum(exp(v)) evaluated directly
        v = np.array([1.0, 2.0, 3.0])
        e = np.exp(v)
        expected = e / e.sum()  # [0.09003057, 0.24472847, 0.66524096]
        assert np.allclose(nn.softmax(v), expected, atol=1e-12)
        assert np.allclose(nn.softmax(v), [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_simplex_property(self):
        # entries up to magnitude 1e3: exp underflow may round tiny weights to
        # exactly 0, so the simplex check is non-negativity plus normalization
        rng = np.random.default_rng(8)
        for _ in range(200):
            v = rng.uniform(-1e3, 1e3, size=rng.integers(1, 9))
            p = nn.softmax(v)
            assert np.all(p >= 0.0)
            assert abs(p.sum() - 1.0) <= 1e-9
        for _ in range(200):
            v = rng.uniform(-20.0, 20.0, size=rng.integers(1, 9))
            assert np.all(nn.softmax(v) > 0.0)

    def test_empty_raises(self):
        with pytest.raises(UsageError):
            nn.softmax(np.array([]))


class TestLosses:
    def test_squared_zero_at_target(self):
        loss, grad = nn.loss_and_grad("squared", np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_cross_entropy_uniform(self):
        loss, _ = nn.loss_and_grad("cross_entropy", np.full(4, 0.25), 2)
        assert abs(loss - math.log(4)) <= 1e-6

    def test_mse_hand_computed(self):
        loss, grad = nn.loss_and_grad("mean_squared", np.array([0.5]), np.array([1.0]))
        assert abs(loss - 0.25) <= 1e-12
        assert abs(grad[0] - (-1.0)) <= 1e-12

    def test_cross_entropy_rejects_unnormalized(self):
        with pytest.raises(UsageError):
            nn.loss_and_grad("cross_entropy", np.array([0.5, 0.9]), 0)

    def test_cross_entropy_one_hot_target(self):
        p = np.array([0.2, 0.3, 0.5])
        a, ga = nn.loss_and_grad("cross_entropy", p, 2)
        b, gb = nn.loss_and_grad("cross_entropy", p, np.array([0.0, 0.0, 1.0]))
        assert a == b and np.array_equal(ga, gb)


class TestAdaGrad:
    def test_zero_gradient_no_change(self):
        params = {"w": np.array([1.0, -2.0])}
        state = nn.AdaGradState.for_params(params, 0.1)
        nn.adagrad_update(params, {"w": np.zeros(2)}, state)
        assert np.array_equal(params["w"], [1.0, -2.0])

    def test_first_step_is_lr_times_sign(self):
        params = {"w": np.array([0.0])}
        state = nn.AdaGradState.for_params(params, 0.0005)
        nn.adagrad_update(params, {"w": np.array([0.5])}, state)
        assert abs(params["w"][0] - (-0.0005)) <= 1e-9

    def test_second_identical_step_shrinks_by_sqrt2(self):
        params = {"w": np.array([0.0])}
        state = nn.AdaGradState.for_params(params, 0.0005)
        g = {"w": np.array([0.5])}
        nn.adagrad_update(params, g, state)
        first = -params["w"][0]
        before = params["w"][0]
        nn.adagrad_update(params, g, state)
        second = before - params["w"][0]
        assert abs(second - first / math.sqrt(2)) <= 1e-9

    def test_accumulators_never_decrease(self):
        rng = np.random.default_rng(4)
        params = {"w": rng.normal(size=(3, 2))}
        state = nn.AdaGradState.for_params(params, 0.01)
        prev = state.accumulators["w"].copy()
        for _ in range(20):
            nn.adagrad_update(params, {"w": rng.normal(size=(3, 2))}, state)
            assert np.all(state.accumulators["w"] >= prev)
            prev = state.accumulators["w"].copy()

    def test_non_finite_gradient_raises(self):
        params = {"w": np.array([0.0])}
        state = nn.AdaGradState.for_params(params, 0.1)
        with pytest.raises(TrainingError, match="w"):
            nn.adagrad_update(params, {"w": np.array([np.nan])}, state)


def per_name_adagrad(params, grads, accumulators, lr, clip=None, eps=nn.EPS_NUM):
    """The per-parameter AdaGrad loop the flat step replaced (reference)."""
    for name, g in grads.items():
        g = g.copy()
        if clip is not None:
            np.clip(g, -clip, clip, out=g)
        accumulators[name] += g * g
        params[name] -= lr * g / (np.sqrt(accumulators[name]) + eps)


class TestFlatAdaGrad:
    @pytest.mark.parametrize("clip", [None, 0.05])
    def test_matches_per_name_update(self, clip):
        rng = np.random.default_rng(41)
        spec = nn.MLPSpec((6, 9, 3))
        params = nn.FlatParams.of(nn.init_params(spec, 3))
        ref_params = {k: v.copy() for k, v in params.items()}
        ref_acc = {k: np.zeros_like(v) for k, v in params.items()}
        state = nn.AdaGradState.for_params(params, 0.01)
        for _ in range(6):
            grads = {k: rng.normal(scale=0.1, size=v.shape) for k, v in params.items()}
            per_name_adagrad(ref_params, grads, ref_acc, 0.01, clip)
            nn.adagrad_update(params, nn.FlatParams.of(grads), state, clip=clip)
        for name in params:
            assert params[name].tobytes() == ref_params[name].tobytes(), name
            assert state.accumulators[name].tobytes() == ref_acc[name].tobytes(), name

    def test_plain_dict_updated_in_place(self):
        params = {"w": np.zeros(2), "b": np.zeros(1)}
        arrays = dict(params)
        state = nn.AdaGradState.for_params(params, 0.1)
        nn.adagrad_update(params, {"b": np.ones(1), "w": np.ones(2)}, state)
        assert all(params[name] is arrays[name] for name in params)
        assert params["w"].tolist() == params["b"].tolist() * 2 and params["b"][0] < 0.0

    def test_views_share_the_flat_vector(self):
        params = nn.FlatParams.of({"a": np.ones((2, 3)), "b": np.zeros(4)})
        params["b"] = np.arange(4.0)
        params["a"][0, 0] = 7.0
        assert params.flat.tolist() == [7.0] + [1.0] * 5 + [0.0, 1.0, 2.0, 3.0]
        copy = params.copy()
        copy["a"][:] = 0.0
        assert params["a"][0, 0] == 7.0

    def test_shape_change_rejected(self):
        params = nn.FlatParams.of({"w": np.zeros((2, 2))})
        with pytest.raises(ConfigurationError, match="w"):
            params["w"] = np.zeros(4)

    def test_non_finite_names_first_bad_parameter(self):
        params = nn.FlatParams.of({"a": np.zeros(3), "b": np.zeros((2, 2)), "c": np.zeros(2)})
        state = nn.AdaGradState.for_params(params, 0.1)
        grads = params.copy()
        grads["b"][1, 0] = np.inf
        grads["c"][0] = np.nan
        with pytest.raises(TrainingError, match="'b'"):
            nn.adagrad_update(params, grads, state)
        assert not params.flat.any() and not state.accumulators.flat.any()


class TestInit:
    def test_deterministic(self):
        spec = nn.MLPSpec((15, 50, 5))
        a = nn.init_params(spec, 123)
        b = nn.init_params(spec, 123)
        assert set(a) == set(b)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_biases_zero(self):
        params = nn.init_params(nn.MLPSpec((4, 8, 3)), 1)
        assert np.all(params["0.bias"] == 0.0)
        assert np.all(params["1.bias"] == 0.0)

    def test_weight_bound(self):
        params = nn.init_params(nn.MLPSpec((15, 50, 5)), 7)
        bound = math.sqrt(6.0 / (15 + 50))
        assert np.all(np.abs(params["0.weight"]) <= bound)
