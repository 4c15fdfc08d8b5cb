import math
import re

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


def flat(params):
    """``params`` in the form binding takes: a ``FlatParams`` as it is, a
    plain dict copied into one in its own order."""
    return params if isinstance(params, nn.FlatParams) else nn.FlatParams.of(params)


def forward(spec, params, x, prefix=""):
    """``bind_mlp`` then ``run_mlp`` on the batch ``x``: (output, cache)."""
    return nn.run_mlp(nn.bind_mlp(spec, flat(params), prefix), x, keep_cache=True)


def backward(spec, params, cache, output_gradient, prefix=""):
    """``mlp_backward`` over ``spec`` bound on ``params`` and on a new
    gradient set: (the gradient set, the input gradient)."""
    grads = nn.FlatParams(nn.mlp_layout(spec, prefix))
    dx = nn.mlp_backward(nn.bind_mlp(spec, flat(params), prefix),
                         nn.bind_mlp(spec, grads, prefix), cache, output_gradient)
    return grads, dx


def mlp_forward(spec, params, x, prefix=""):
    """The forward pass by parameter name, layer after layer, in run_mlp's
    arithmetic: the bit reference for the bound layers. Returns the output
    and each layer's input and output."""
    inputs, outputs = [], []
    for i in range(spec.layer_count):
        inputs.append(x)
        z = x @ params[f"{prefix}{i}.weight"] + params[f"{prefix}{i}.bias"]
        activation = "relu" if i < spec.layer_count - 1 else spec.output
        if activation == "relu":
            x = np.maximum(z, 0.0)
        elif activation == "softmax":
            x = nn.softmax(z)
        elif activation == "sigmoid":
            x = 1.0 / (1.0 + np.exp(-z))
        else:
            x = z
        outputs.append(x)
    return x, inputs, outputs


class TestForward:
    def test_zero_params_zero_output(self):
        spec = nn.MLPSpec((3, 4, 2))
        params = {name: np.zeros_like(v) for name, v in nn.init_params(spec, 0).items()}
        out, _ = forward(spec, params, np.array([[1.0, -2.0, 3.0]]))
        assert np.all(out == 0.0)

    def test_identity_relu(self):
        spec = nn.MLPSpec((2, 2), output="relu")
        params = {"0.weight": np.eye(2), "0.bias": np.zeros(2)}
        out, _ = forward(spec, params, np.array([[-1.0, 2.0]]))
        assert np.allclose(out, [[0.0, 2.0]])

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
        out, _ = forward(spec, params, x[None, :])
        assert np.allclose(out[0], expected, rtol=0, atol=1e-12)

    def test_batch_matches_single(self):
        spec = nn.MLPSpec((4, 5, 3))
        params = nn.init_params(spec, 7)
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(6, 4))
        out_batch, _ = forward(spec, params, batch)
        for row in range(6):
            single, _ = forward(spec, params, batch[row : row + 1])
            assert np.allclose(out_batch[row], single[0], rtol=0, atol=1e-12)

    def test_shape_mismatch_raises(self):
        spec = nn.MLPSpec((3, 2))
        params = nn.init_params(spec, 0)
        with pytest.raises(ConfigurationError):
            forward(spec, params, np.zeros((1, 4)))

    def test_forward_is_pure(self):
        spec = nn.MLPSpec((3, 8, 2))
        params = nn.init_params(spec, 5)
        x = np.array([[0.1, 0.2, 0.3]])
        a, _ = forward(spec, params, x)
        b, _ = forward(spec, params, x)
        assert np.array_equal(a, b)


class TestBoundLayers:
    @pytest.mark.parametrize("output", ["linear", "relu", "softmax", "sigmoid"])
    def test_run_equals_mlp_forward(self, output):
        spec = nn.MLPSpec((5, 7, 6, 3), output=output)
        params = nn.FlatParams.of(nn.init_params(spec, 4, prefix="net."))
        layers = nn.bind_mlp(spec, params, "net.")
        assert [act for _, _, act in layers] == ["relu", "relu", output]
        for x in (np.random.default_rng(1).normal(size=(1, 5)),
                  np.random.default_rng(2).normal(size=(9, 5))):
            ref, ref_inputs, ref_outputs = mlp_forward(spec, params, x, "net.")
            out, none = nn.run_mlp(layers, x)
            assert none is None and out.tobytes() == ref.tobytes()
            out, cache = nn.run_mlp(layers, x, keep_cache=True)
            assert out.tobytes() == ref.tobytes()
            assert len(cache) == len(ref_inputs) + 1
            for got, want in zip(cache, ref_inputs + ref_outputs[-1:]):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stacked", [False, True])
    def test_cache_is_the_activation_list(self, stacked):
        spec = nn.MLPSpec((5, 7, 6, 3))
        prefixes = TestStackedLayers.PREFIXES
        params = TestStackedLayers._params(spec, prefixes)
        bound = (nn.bind_stacked_mlp(spec, params, prefixes) if stacked
                 else nn.bind_mlp(spec, params, prefixes[0]))
        read = []  # the array each layer's matmul took as its input, in order

        class Weight(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                assert ufunc is np.matmul and inputs[1] is self
                read.append(inputs[0])
                return ufunc(inputs[0], self.view(np.ndarray), **kwargs)

        layers = tuple((w.view(Weight), b, act) for w, b, act in bound)
        x = np.random.default_rng(3).normal(size=(4, 5))
        out, cache = nn.run_mlp(layers, x, keep_cache=True)
        assert out.tobytes() == nn.run_mlp(bound, x)[0].tobytes()
        assert len(cache) == spec.layer_count + 1 == len(read) + 1
        assert cache[0] is x and cache[-1] is out
        assert all(entry is layer_input for entry, layer_input in zip(cache, read))
        assert nn.run_mlp(layers, x, keep_cache=False)[1] is None

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
            with pytest.raises(ConfigurationError,
                               match=re.escape(f"parameter {name} has shape {shape}")):
                nn.bind_mlp(spec, flat(params))

    @pytest.mark.parametrize("name", ["0.weight", "1.weight", "1.bias"])
    def test_bind_names_a_missing_parameter(self, name):
        spec = nn.MLPSpec((3, 4, 2))
        params = nn.init_params(spec, 0)
        del params[name]
        with pytest.raises(ConfigurationError, match=rf"{name} is missing"):
            nn.bind_mlp(spec, flat(params))

    def test_bind_names_a_parameter_out_of_place(self):
        spec = nn.MLPSpec((3, 4, 2))
        params = nn.init_params(spec, 0)
        params["0.bias"] = params.pop("0.bias")  # now last in the layout
        with pytest.raises(ConfigurationError, match="0.bias is out of place"):
            nn.bind_mlp(spec, flat(params))

    def test_one_mlp_is_the_first_of_a_stack(self):
        spec = nn.MLPSpec((5, 7, 3))
        params = TestStackedLayers._params(spec, TestStackedLayers.PREFIXES)
        layers = nn.bind_mlp(spec, params, "m.1.")
        stacked = nn.bind_stacked_mlp(spec, params, ["m.1."])
        for i, ((w, b, act), (sw, sb, sact)) in enumerate(zip(layers, stacked)):
            n_in, n_out = spec.sizes[i], spec.sizes[i + 1]
            assert act == sact and w.shape == (n_in, n_out) and b.shape == (1, n_out)
            assert np.array_equal(w, sw[0]) and np.array_equal(b, sb[0])
            assert np.shares_memory(w, params.flat) and np.shares_memory(b, params.flat)
            assert np.array_equal(w, params[f"m.1.{i}.weight"])
            assert np.array_equal(b[0], params[f"m.1.{i}.bias"])

    def test_run_checks_input_width(self):
        spec = nn.MLPSpec((3, 2))
        layers = nn.bind_mlp(spec, flat(nn.init_params(spec, 0)))
        with pytest.raises(ConfigurationError, match="input width 4"):
            nn.run_mlp(layers, np.zeros((2, 4)))


class TestStackedLayers:
    PREFIXES = ("m.0.", "m.1.", "m.2.")

    @staticmethod
    def _params(spec, prefixes):
        arrays = {"before.weight": np.ones((2, 2))}  # the stack need not start the vector
        for k, prefix in enumerate(prefixes):
            arrays.update(nn.init_params(spec, 10 + k, prefix))
        return nn.FlatParams.of(arrays)

    @pytest.mark.parametrize("output", ["linear", "relu", "softmax", "sigmoid"])
    @pytest.mark.parametrize("rows", [1, 9])
    def test_each_mlp_gets_the_bits_of_its_own_pass(self, output, rows):
        spec = nn.MLPSpec((5, 7, 6, 3), output=output)
        params = self._params(spec, self.PREFIXES)
        grads = nn.FlatParams(params.layout)
        rng = np.random.default_rng(8)
        x, dy = rng.normal(size=(rows, 5)), rng.normal(size=(3, rows, 3))
        layers = nn.bind_stacked_mlp(spec, params, self.PREFIXES)
        out, cache = nn.run_mlp(layers, x, keep_cache=True)
        dx = nn.mlp_backward(layers, nn.bind_stacked_mlp(spec, grads, self.PREFIXES), cache, dy)
        for k, prefix in enumerate(self.PREFIXES):
            want, want_cache = forward(spec, params, x, prefix)
            assert out[k].tobytes() == want.tobytes()
            want_grads, want_dx = backward(spec, params, want_cache, dy[k].copy(), prefix)
            assert dx[k].tobytes() == want_dx.tobytes()
            for name, value in want_grads.items():
                assert grads[name].tobytes() == value.tobytes(), name

    def test_layers_are_views_of_the_flat_vector(self):
        spec = nn.MLPSpec((3, 4, 2))
        params = self._params(spec, self.PREFIXES)
        layers = nn.bind_stacked_mlp(spec, params, self.PREFIXES)
        for weight, bias, _ in layers:
            assert np.shares_memory(weight, params.flat) and np.shares_memory(bias, params.flat)
        params["m.2.1.bias"] = np.array([4.0, -4.0])  # a write by name reaches the stack
        assert np.array_equal(layers[1][1][2], [[4.0, -4.0]])

    @pytest.mark.parametrize("prefixes", [("m.0.", "m.2."), ("m.1.", "m.0."), ("m.3.",)])
    def test_rejects_mlps_not_laid_out_one_after_another(self, prefixes):
        spec = nn.MLPSpec((3, 4, 2))
        params = self._params(spec, self.PREFIXES)
        with pytest.raises(ConfigurationError, match="not laid out one after another"):
            nn.bind_stacked_mlp(spec, params, prefixes)


class TestBackward:
    def test_zero_output_gradient(self):
        spec = nn.MLPSpec((3, 4, 2))
        params = nn.init_params(spec, 3)
        out, cache = forward(spec, params, np.ones((1, 3)))
        grads, dx = backward(spec, params, cache, np.zeros_like(out))
        assert all(np.all(g == 0.0) for g in grads.values())
        assert np.all(dx == 0.0)

    def test_refuses_a_cache_or_gradient_that_does_not_fit(self):
        spec = nn.MLPSpec((3, 4, 2))
        params = nn.init_params(spec, 3)
        out, cache = forward(spec, params, np.ones((5, 3)))
        for wrong in (cache[:-1], cache + [out]):
            with pytest.raises(ConfigurationError, match="layer count differs"):
                backward(spec, params, wrong, np.zeros_like(out))
        for shape in ((5, 3), (4, 2), (2,)):
            with pytest.raises(ConfigurationError, match="does not match forward output"):
                backward(spec, params, cache, np.zeros(shape))

    def test_single_linear_layer_analytic(self):
        # y = W x; gradient of 0.5*||y - t||^2 w.r.t. W is (y - t) x^T
        spec = nn.MLPSpec((3, 2))
        rng = np.random.default_rng(11)
        params = {"0.weight": rng.normal(size=(3, 2)), "0.bias": np.zeros(2)}
        x = rng.normal(size=(1, 3))
        t = rng.normal(size=(1, 2))
        y, cache = forward(spec, params, x)
        grads, _ = backward(spec, params, cache, y - t)
        assert np.allclose(grads["0.weight"], np.outer(x, y - t))
        assert np.allclose(grads["0.bias"], (y - t)[0])

    def test_finite_difference_4_8_3(self):
        spec = nn.MLPSpec((4, 8, 3))
        params = nn.init_params(spec, 99)
        x = np.random.default_rng(2).normal(size=(1, 4))
        t = np.array([[0.3, -0.4, 1.1]])

        def loss(p):
            y, _ = forward(spec, p, x)
            return float(np.sum((y - t) ** 2))

        y, cache = forward(spec, params, x)
        analytic, _ = backward(spec, params, cache, 2.0 * (y - t))
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
            x = rng.normal(size=(1, sizes[0]))
            w = rng.normal(size=(1, sizes[-1]))  # random linear functional as loss

            def loss(p):
                y, _ = forward(spec, p, x)
                return float(np.sum(w * y))

            _, cache = forward(spec, params, x)
            analytic, _ = backward(spec, params, cache, w)
            numeric = finite_difference_grads(loss, params)
            assert max_relative_error(analytic, numeric) <= 1e-4

    def test_input_gradient_matches_fd(self):
        spec = nn.MLPSpec((5, 6, 2))
        params = nn.init_params(spec, 17)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 5))
        w = rng.normal(size=(1, 2))
        _, cache = forward(spec, params, x)
        _, dx = backward(spec, params, cache, w)
        step = 1e-6
        for k in range(5):
            xp, xm = x.copy(), x.copy()
            xp[0, k] += step
            xm[0, k] -= step
            hi, _ = forward(spec, params, xp)
            lo, _ = forward(spec, params, xm)
            fd = float(np.sum(w * hi) - np.sum(w * lo)) / (2 * step)
            assert abs(fd - dx[0, k]) <= 1e-4 * max(1.0, abs(fd))


def out_of_place_backward(spec, params, cache, output_gradient):
    """The backward pass as it was before ReLU gradients were masked in
    place and biases summed with ``np.add.reduce``: the bit reference."""
    dy = output_gradient
    grads = {}
    last = spec.layer_count - 1
    for i in range(last, -1, -1):
        a = cache[i + 1]
        if i < last or spec.output == "relu":
            dz = dy * (a > 0.0)
        elif spec.output == "softmax":
            dz = nn.softmax_grad(a, dy)
        elif spec.output == "sigmoid":
            dz = dy * a * (1.0 - a)
        else:
            dz = dy
        grads[f"{i}.weight"] = cache[i].T @ dz
        grads[f"{i}.bias"] = np.sum(dz, axis=0)
        dy = dz @ params[f"{i}.weight"].T
    return grads, dy


class TestInPlaceBackward:
    @pytest.mark.parametrize("output", ["linear", "relu", "softmax", "sigmoid"])
    def test_same_bits_as_out_of_place(self, output):
        spec = nn.MLPSpec((5, 7, 6, 3), output=output)
        params = nn.init_params(spec, 5)
        rng = np.random.default_rng(6)
        _, cache = forward(spec, params, rng.normal(size=(9, 5)))
        dy = rng.normal(size=(9, 3))
        dy[0] = -0.0  # the sign of a masked zero must survive too
        want_grads, want_dx = out_of_place_backward(spec, params, cache, dy)
        gradient = dy.copy()
        grads, dx = backward(spec, params, cache, gradient)
        assert dx.tobytes() == want_dx.tobytes()
        for name, value in want_grads.items():
            assert grads[name].tobytes() == value.tobytes(), name
        assert gradient.tobytes() == dy.tobytes()  # the caller's array is left as it was


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
    def test_cross_entropy_uniform(self):
        loss, _ = nn.loss_and_grad("cross_entropy", np.full(4, 0.25), 2)
        assert abs(loss - math.log(4)) <= 1e-6

    def test_mse_hand_computed(self):
        loss, grad = nn.loss_and_grad("mean_squared", np.array([0.5]), 1.0)
        assert abs(loss - 0.25) <= 1e-12
        assert abs(grad[0] - (-1.0)) <= 1e-12

    def test_cross_entropy_rejects_unnormalized(self):
        with pytest.raises(UsageError):
            nn.loss_and_grad("cross_entropy", np.array([0.5, 0.9]), 0)

    @pytest.mark.parametrize("kind,width", [("cross_entropy", 4), ("mean_squared", 1)])
    def test_a_vector_gives_the_bits_of_a_one_row_batch(self, kind, width):
        rng = np.random.default_rng(12)
        for _ in range(20):
            logits = rng.normal(size=width)
            if kind == "cross_entropy":
                p, target = nn.softmax(logits), int(rng.integers(width))
            else:
                p, target = 1.0 / (1.0 + np.exp(-logits)), float(rng.random())
            loss, grad = nn.loss_and_grad(kind, p, target)
            losses, grads = nn.loss_and_grad(kind, p[None, :], np.array([target]))
            assert isinstance(loss, float) and losses.shape == (1,)
            assert grad.shape == (width,) and grads.shape == (1, width)
            assert np.float64(loss).tobytes() == losses[0].tobytes()
            assert grad.tobytes() == grads[0].tobytes()

    @pytest.mark.parametrize("predictions,targets", [
        (np.full(2, 0.5), np.array([0.0, 1.0])),  # a vector takes one scalar target
        (np.full((2, 2), 0.5), 1),  # a batch takes one target per row
        (np.full((2, 2), 0.5), np.array([0, 1, 1])),
    ])
    def test_targets_that_do_not_fit_the_rows_are_refused(self, predictions, targets):
        with pytest.raises(UsageError, match="one scalar target per prediction row"):
            nn.loss_and_grad("cross_entropy", predictions, targets)

    def test_mean_squared_takes_one_output(self):
        with pytest.raises(UsageError, match="one output per row"):
            nn.loss_and_grad("mean_squared", np.array([0.5, 0.5]), 1.0)

    def test_squared_is_not_a_kind(self):
        with pytest.raises(UsageError, match="unknown loss kind 'squared'"):
            nn.loss_and_grad("squared", np.array([0.5]), 1.0)


class TestAdaGrad:
    def test_zero_gradient_no_change(self):
        params = nn.FlatParams.of({"w": np.array([1.0, -2.0])})
        state = nn.AdaGradState.for_params(params, 0.1)
        nn.adagrad_update(params, nn.FlatParams.of({"w": np.zeros(2)}), state)
        assert np.array_equal(params["w"], [1.0, -2.0])

    def test_first_step_is_lr_times_sign(self):
        params = nn.FlatParams.of({"w": np.array([0.0])})
        state = nn.AdaGradState.for_params(params, 0.0005)
        nn.adagrad_update(params, nn.FlatParams.of({"w": np.array([0.5])}), state)
        assert abs(params["w"][0] - (-0.0005)) <= 1e-9

    def test_second_identical_step_shrinks_by_sqrt2(self):
        params = nn.FlatParams.of({"w": np.array([0.0])})
        state = nn.AdaGradState.for_params(params, 0.0005)
        nn.adagrad_update(params, nn.FlatParams.of({"w": np.array([0.5])}), state)
        first = -params["w"][0]
        before = params["w"][0]
        nn.adagrad_update(params, nn.FlatParams.of({"w": np.array([0.5])}), state)
        second = before - params["w"][0]
        assert abs(second - first / math.sqrt(2)) <= 1e-9

    def test_accumulators_never_decrease(self):
        rng = np.random.default_rng(4)
        params = nn.FlatParams.of({"w": rng.normal(size=(3, 2))})
        state = nn.AdaGradState.for_params(params, 0.01)
        prev = state.accumulators["w"].copy()
        for _ in range(20):
            nn.adagrad_update(params, nn.FlatParams.of({"w": rng.normal(size=(3, 2))}), state)
            assert np.all(state.accumulators["w"] >= prev)
            prev = state.accumulators["w"].copy()

    def test_non_finite_gradient_raises(self):
        params = nn.FlatParams.of({"w": np.array([0.0])})
        state = nn.AdaGradState.for_params(params, 0.1)
        with pytest.raises(TrainingError, match="w"):
            nn.adagrad_update(params, nn.FlatParams.of({"w": np.array([np.nan])}), state)

    def test_only_flat_params_in_the_accumulators_layout(self):
        params = nn.FlatParams.of({"w": np.zeros(2), "b": np.zeros(1)})
        state = nn.AdaGradState.for_params(params, 0.1)
        grads = nn.FlatParams.of({"w": np.ones(2), "b": np.ones(1)})
        reordered = nn.FlatParams.of({"b": np.ones(1), "w": np.ones(2)})
        for bad in ({"w": np.zeros(2), "b": np.zeros(1)}, reordered):
            with pytest.raises(UsageError, match="params"):
                nn.adagrad_update(bad, grads, state)
            with pytest.raises(UsageError, match="grads"):
                nn.adagrad_update(params, bad, state)
        assert not params.flat.any() and not state.accumulators.flat.any()


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

    def test_views_share_the_flat_vector(self):
        params = nn.FlatParams.of({"a": np.ones((2, 3)), "b": np.zeros(4)})
        params["b"] = np.arange(4.0)
        params["a"][0, 0] = 7.0
        assert params.flat.tolist() == [7.0] + [1.0] * 5 + [0.0, 1.0, 2.0, 3.0]

    def test_shape_change_rejected(self):
        params = nn.FlatParams.of({"w": np.zeros((2, 2))})
        with pytest.raises(ConfigurationError, match="w"):
            params["w"] = np.zeros(4)

    def test_non_finite_names_first_bad_parameter(self):
        params = nn.FlatParams.of({"a": np.zeros(3), "b": np.zeros((2, 2)), "c": np.zeros(2)})
        state = nn.AdaGradState.for_params(params, 0.1)
        grads = nn.FlatParams.of(params)  # a copy, laid out alike
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
