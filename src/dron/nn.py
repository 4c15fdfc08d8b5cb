"""Dense feed-forward primitives: forward/backward passes, losses, AdaGrad.

Everything operates on plain float64 numpy arrays. A parameter set is a flat
dict mapping names like ``"state_tower.0.weight"`` to arrays; an MLP owns the
names ``"{prefix}{i}.weight"`` / ``"{prefix}{i}.bias"`` for each of its layers.
``mlp_forward``/``mlp_backward`` accept a single input vector ``(in,)`` or a
batch ``(B, in)``; ``run_mlp`` takes a batch. Weight gradients returned for a
batch are sums over the batch rows.

Bound layers: ``bind_mlp`` resolves an MLP's names in a parameter set once,
checks their shapes, and returns one ``(weight, bias, activation)`` tuple per
layer; ``run_mlp`` runs the chain over them and keeps a ``ForwardCache`` only
when asked. ``mlp_forward`` is the two in one call. A caller that runs an MLP
many times (an agent) binds it once and runs the bound layers.

Flat-parameter rule: a model's parameters, its gradients and its AdaGrad
accumulators are each a ``FlatParams``, a dict whose arrays are views into one
contiguous vector ``flat``, all three laid out alike (same names, order and
shapes). AdaGrad then clips, checks and updates the whole model as one
vector. Writing ``params[name] = value`` copies into the view, so the views
stay bound; an agent's ``params`` setter copies a plain dict into its layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import ConfigurationError, TrainingError, UsageError

ParamSet = Dict[str, np.ndarray]
Layout = Tuple[Tuple[str, Tuple[int, ...]], ...]  # (name, shape) in vector order

EPS_NUM = 1e-8  # stabilizer for AdaGrad and log() in cross-entropy

_OUTPUT_ACTIVATIONS = ("linear", "relu", "softmax", "sigmoid")


@dataclass(frozen=True)
class MLPSpec:
    """Layer sizes plus the activation applied to the last layer.

    ``sizes[0]`` is the input width; every other entry is a layer. Hidden
    layers always use ReLU.
    """

    sizes: Tuple[int, ...]
    output: str = "linear"

    def __post_init__(self) -> None:
        if len(self.sizes) < 2:
            raise ConfigurationError(f"MLPSpec needs at least one layer, got sizes={self.sizes}")
        if any(s < 1 for s in self.sizes):
            raise ConfigurationError(f"MLPSpec sizes must be positive, got {self.sizes}")
        if self.output not in _OUTPUT_ACTIVATIONS:
            raise ConfigurationError(f"unknown output activation {self.output!r}")

    @property
    def layer_count(self) -> int:
        return len(self.sizes) - 1


@dataclass
class ForwardCache:
    """Intermediates from one mlp_forward call, consumed by mlp_backward."""

    inputs: List[np.ndarray]  # input to each layer, shape (B, in_l)
    outputs: List[np.ndarray]  # post-activation output of each layer
    squeeze: bool  # input was 1-D; outputs were squeezed


def as_batch(x: np.ndarray) -> Tuple[np.ndarray, bool]:
    """``x`` as a float64 batch ``(B, in)``, and whether it was one vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise ConfigurationError(f"expected a vector or a batch of vectors, got shape {x.shape}")


def layout_of(arrays: Mapping[str, np.ndarray]) -> Layout:
    return tuple((name, np.shape(value)) for name, value in arrays.items())


class FlatParams(dict):
    """Name -> array views into one contiguous float64 vector ``flat``, laid
    out in ``layout`` order; ``flat`` starts at zero unless given. Assigning
    a name copies into its view."""

    def __init__(self, layout: Layout, flat: Optional[np.ndarray] = None):
        super().__init__()
        self.layout = layout
        self.flat = np.zeros(sum(prod(shape) for _, shape in layout)) if flat is None else flat
        offset = 0
        for name, shape in layout:
            n = prod(shape)
            dict.__setitem__(self, name, self.flat[offset:offset + n].reshape(shape))
            offset += n

    @classmethod
    def of(cls, arrays: Mapping[str, np.ndarray], layout: Optional[Layout] = None) -> "FlatParams":
        """Copy ``arrays`` into a new flat set laid out as ``layout`` (by
        default the arrays' own order and shapes)."""
        if layout is None:
            layout = layout_of(arrays)
        names = [name for name, _ in layout]
        if set(names) != set(arrays):
            missing = set(names) - set(arrays)
            extra = set(arrays) - set(names)
            raise ConfigurationError(
                f"parameter names do not match spec (missing {sorted(missing)}, "
                f"extra {sorted(extra)})"
            )
        out = cls(layout)
        for name in names:
            out[name] = arrays[name]
        return out

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        view = self[name]
        if np.shape(value) != view.shape:
            raise ConfigurationError(
                f"parameter {name!r} has shape {np.shape(value)}, expected {view.shape}"
            )
        view[...] = value

    def copy(self) -> "FlatParams":
        return FlatParams(self.layout, self.flat.copy())

    def name_at(self, index: int) -> str:
        """The parameter that holds element ``index`` of ``flat``."""
        for name, view in self.items():
            if index < view.size:
                return name
            index -= view.size
        raise IndexError(index)


def init_params(spec: MLPSpec, seed: Union[int, np.random.Generator], prefix: str = "") -> ParamSet:
    """Fresh parameters: weights uniform in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    params: ParamSet = {}
    for i in range(spec.layer_count):
        fan_in, fan_out = spec.sizes[i], spec.sizes[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params[f"{prefix}{i}.weight"] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        params[f"{prefix}{i}.bias"] = np.zeros(fan_out)
    return params


# One layer of an MLP bound to a parameter set: (weight view, bias view,
# activation). Hidden layers are "relu"; the last uses the spec's output.
Layer = Tuple[np.ndarray, np.ndarray, str]


def bind_mlp(spec: MLPSpec, params: Mapping[str, np.ndarray], prefix: str = "") -> Tuple[Layer, ...]:
    """Resolve an MLP's layers in ``params`` once, checking their shapes.

    The layers hold the arrays themselves, so they follow any in-place write
    to ``params`` (an agent's ``FlatParams`` are only ever written in place).
    """
    for name, shape in mlp_layout(spec, prefix):
        if params[name].shape != shape:
            raise ConfigurationError(
                f"parameter {name} has shape {params[name].shape}, spec wants {shape}")
    last = spec.layer_count - 1
    return tuple(
        (params[f"{prefix}{i}.weight"], params[f"{prefix}{i}.bias"],
         "relu" if i < last else spec.output)
        for i in range(spec.layer_count)
    )


def run_mlp(
    layers: Tuple[Layer, ...], a: np.ndarray, keep_cache: bool = False
) -> Tuple[np.ndarray, Optional[ForwardCache]]:
    """Affine + activation chain over bound layers for a float64 batch ``a``
    of shape ``(B, in)``. Returns the output batch and, with ``keep_cache``,
    the cache ``mlp_backward`` consumes (else None)."""
    if a.shape[1] != layers[0][0].shape[0]:
        raise ConfigurationError(
            f"input width {a.shape[1]} does not match spec input size {layers[0][0].shape[0]}"
        )
    inputs: List[np.ndarray] = []
    outputs: List[np.ndarray] = []
    for w, b, activation in layers:
        if keep_cache:
            inputs.append(a)
        z = a @ w + b
        if activation == "relu":
            a = np.maximum(z, 0.0)
        elif activation == "softmax":
            a = _softmax_rows(z)
        elif activation == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = z
        if keep_cache:
            outputs.append(a)
    return a, (ForwardCache(inputs=inputs, outputs=outputs, squeeze=False) if keep_cache else None)


def mlp_forward(
    spec: MLPSpec, params: ParamSet, x: np.ndarray, prefix: str = ""
) -> Tuple[np.ndarray, ForwardCache]:
    """Affine + activation chain by parameter name, on one vector or a
    batch: ``bind_mlp`` then ``run_mlp``. Returns the output, in the form of
    ``x``, and a reusable cache."""
    a, squeeze = as_batch(x)
    out, cache = run_mlp(bind_mlp(spec, params, prefix), a, keep_cache=True)
    cache.squeeze = squeeze
    return (out[0] if squeeze else out), cache


def mlp_backward(
    spec: MLPSpec,
    params: ParamSet,
    cache: ForwardCache,
    output_gradient: np.ndarray,
    prefix: str = "",
    out: Optional[FlatParams] = None,
    input_grad: bool = True,
) -> Tuple[ParamSet, Optional[np.ndarray]]:
    """Backpropagate d(loss)/d(output) through the cached forward pass.

    Returns (parameter gradients, gradient w.r.t. the input). Weight
    gradients are summed over batch rows and written into ``out`` when given
    (a model-wide gradient set holding this MLP's names), else into a new
    set. With ``input_grad=False`` the input gradient is skipped and None.
    """
    if len(cache.inputs) != spec.layer_count:
        raise ConfigurationError("cache does not match spec (layer count differs)")
    dy, _ = as_batch(output_gradient)
    if dy.shape != cache.outputs[-1].shape:
        raise ConfigurationError(
            f"output_gradient shape {dy.shape} does not match forward output "
            f"{cache.outputs[-1].shape}"
        )
    grads = out if out is not None else FlatParams(mlp_layout(spec, prefix))
    last = spec.layer_count - 1
    for i in range(last, -1, -1):
        a = cache.outputs[i]
        if i < last or spec.output == "relu":
            dz = dy * (a > 0.0)
        elif spec.output == "softmax":
            dz = softmax_grad(a, dy)
        elif spec.output == "sigmoid":
            dz = dy * a * (1.0 - a)
        else:
            dz = dy
        np.matmul(cache.inputs[i].T, dz, out=grads[f"{prefix}{i}.weight"])
        np.sum(dz, axis=0, out=grads[f"{prefix}{i}.bias"])
        if i == 0 and not input_grad:
            return grads, None
        dy = dz @ params[f"{prefix}{i}.weight"].T
    return grads, (dy[0] if cache.squeeze else dy)


def mlp_layout(spec: MLPSpec, prefix: str = "") -> Layout:
    """Names and shapes of an MLP's parameters, layer by layer."""
    layout = []
    for i in range(spec.layer_count):
        layout.append((f"{prefix}{i}.weight", (spec.sizes[i], spec.sizes[i + 1])))
        layout.append((f"{prefix}{i}.bias", (spec.sizes[i + 1],)))
    return tuple(layout)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(v: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max-subtraction) over the last axis."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise UsageError("softmax of an empty vector")
    return _softmax_rows(v)


def softmax_grad(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to the logits (row-wise)."""
    inner = (probs * dprobs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - inner)


def loss_and_grad(
    kind: str, prediction: np.ndarray, target: Union[np.ndarray, int, float]
) -> Tuple[float, np.ndarray]:
    """Scalar loss and its gradient w.r.t. the prediction vector.

    kinds: ``squared`` (sum of squared errors), ``mean_squared``, and
    ``cross_entropy`` (prediction is a probability vector, target a class
    index or one-hot vector).
    """
    p = np.asarray(prediction, dtype=np.float64).ravel()
    if kind in ("squared", "mean_squared"):
        t = np.asarray(target, dtype=np.float64).ravel()
        if t.shape != p.shape:
            raise UsageError(f"prediction/target length mismatch: {p.shape} vs {t.shape}")
        diff = p - t
        if kind == "squared":
            return float(diff @ diff), 2.0 * diff
        return float(diff @ diff) / p.size, 2.0 * diff / p.size
    if kind == "cross_entropy":
        if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-6:
            raise UsageError("cross_entropy expects a normalized probability vector")
        if np.isscalar(target) or np.asarray(target).ndim == 0:
            idx = int(target)
            if not 0 <= idx < p.size:
                raise UsageError(f"class index {idx} out of range for {p.size} classes")
            onehot = np.zeros_like(p)
            onehot[idx] = 1.0
        else:
            onehot = np.asarray(target, dtype=np.float64).ravel()
            if onehot.shape != p.shape:
                raise UsageError("one-hot target length mismatch")
        loss = -float(onehot @ np.log(p + EPS_NUM))
        return loss, -onehot / (p + EPS_NUM)
    raise UsageError(f"unknown loss kind {kind!r}")


def loss_and_grad_rows(
    kind: str, predictions: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``loss_and_grad`` for each row of a batch with scalar targets
    (``mean_squared`` on one output, or ``cross_entropy`` with class
    indices): the per-row losses and the gradient w.r.t. every prediction
    row. The gradient uses the same elementwise expressions, so it equals
    the per-row results bit for bit."""
    P = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    width = P.shape[1]
    if kind == "mean_squared":
        if width != 1:
            raise UsageError(f"prediction/target length mismatch: ({width},) vs (1,)")
        diff = P - t[:, None]
        return diff[:, 0] * diff[:, 0] / width, 2.0 * diff / width
    if kind == "cross_entropy":
        if np.any(P < 0.0) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-6):
            raise UsageError("cross_entropy expects a normalized probability vector")
        idx = t.astype(np.intp)
        bad = (idx < 0) | (idx >= width)
        if bad.any():
            raise UsageError(
                f"class index {idx[bad][0]} out of range for {width} classes")
        rows = np.arange(P.shape[0])
        onehot = np.zeros_like(P)
        onehot[rows, idx] = 1.0
        denom = P + EPS_NUM
        return -np.log(denom[rows, idx]), -onehot / denom
    raise UsageError(f"unknown loss kind {kind!r}")


@dataclass
class AdaGradState:
    """Squared-gradient accumulators, laid out like the parameters they serve."""

    learning_rate: float
    accumulators: FlatParams
    eps: float = EPS_NUM

    def __post_init__(self) -> None:
        # the step's denominator, so a step allocates nothing parameter-sized
        self._work = np.empty(self.accumulators.flat.size)

    @classmethod
    def for_params(cls, params: ParamSet, learning_rate: float) -> "AdaGradState":
        layout = params.layout if isinstance(params, FlatParams) else layout_of(params)
        return cls(learning_rate=learning_rate, accumulators=FlatParams(layout))


def adagrad_update(params: ParamSet, grads: ParamSet, state: AdaGradState,
                   clip: Optional[float] = None) -> None:
    """One AdaGrad step over the whole parameter vector, in place: optional
    per-coordinate clip of g to +-clip, then acc += g^2 and
    p -= lr * g / (sqrt(acc) + eps).

    ``params`` and ``grads`` are best ``FlatParams`` in the accumulators'
    layout (an agent's are), and such ``grads`` are used up: the step
    overwrites them. Anything else is copied into that layout first, and
    other ``params`` get the updated values written back into their arrays.
    """
    layout = state.accumulators.layout
    p = params if _laid_out(params, layout) else FlatParams.of(params, layout)
    g = (grads if _laid_out(grads, layout) else FlatParams.of(grads, layout)).flat
    if clip is not None:
        np.clip(g, -clip, clip, out=g)
    finite = np.isfinite(g)
    if not finite.all():
        name = p.name_at(int(np.argmin(finite)))
        raise TrainingError(f"non-finite gradient for parameter {name!r}")
    acc = state.accumulators.flat
    denom = state._work
    np.multiply(g, g, out=denom)
    acc += denom
    np.sqrt(acc, out=denom)
    denom += state.eps
    np.multiply(state.learning_rate, g, out=g)
    g /= denom
    p.flat -= g
    if p is not params:
        for name, value in p.items():
            params[name][...] = value


def _laid_out(params: ParamSet, layout: Layout) -> bool:
    return isinstance(params, FlatParams) and (
        params.layout is layout or params.layout == layout)
