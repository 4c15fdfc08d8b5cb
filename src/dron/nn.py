"""Dense feed-forward primitives: forward/backward passes, losses, AdaGrad.

Everything operates on plain float64 numpy arrays. A parameter set is a flat
dict mapping names like ``"state_tower.0.weight"`` to arrays; an MLP owns the
names ``"{prefix}{i}.weight"`` / ``"{prefix}{i}.bias"`` for each of its layers.
``run_mlp`` and ``mlp_backward`` take a batch ``(B, in)``; weight gradients
are sums over the batch rows.

Bound layers: ``bind_mlp`` resolves an MLP's names in a parameter set once,
checks their shapes, and returns one ``(weight, bias, activation)`` tuple per
layer, the weight an ``(in, out)`` view and the bias a ``(1, out)`` view.
``bind_stacked_mlp`` binds K MLPs of one spec that lie one after another in a
``FlatParams`` as one stacked MLP, each weight a ``(K, in, out)`` view and
each bias a ``(K, 1, out)`` view, so one batched ``np.matmul`` per layer runs
all K; a stacked pass gives each MLP the bits its own pass would. ``run_mlp``
runs the chain over bound layers and, only when asked, keeps the pass's
activations: the list ``[input, out_0, ..., out_{L-1}]``, where layer i reads
entry i and writes entry i+1. ``mlp_backward`` runs that list back, writing
the weight gradients into bound gradient views (the same binding made on the
gradient set). A caller that runs an MLP many times (an agent) binds it once
and runs the bound layers.

Flat-parameter rule: a model's parameters, its gradients and its AdaGrad
accumulators are each a ``FlatParams``, a dict whose arrays are views into one
contiguous vector ``flat``, all three laid out alike (same names, order and
shapes). AdaGrad then clips, checks and updates the whole model as one
vector, and takes nothing else. Writing ``params[name] = value`` copies into
the view, so the views stay bound; an agent's ``params`` setter, the one way
in for a plain dict, copies it into the agent's layout.
The optimizer state holds only its own statistics: the gradient of a
training step is the agent's (``Agent.grads``), which ``mlp_backward``
writes into views of and ``adagrad_update`` uses up, so one vector serves
every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

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


def as_batch(x: np.ndarray) -> np.ndarray:
    """``x`` as a float64 batch ``(B, in)``; one vector is a one-row batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :]
    if x.ndim == 2:
        return x
    raise ConfigurationError(f"expected a vector or a batch of vectors, got shape {x.shape}")


def layout_of(arrays: Mapping[str, np.ndarray]) -> Layout:
    return tuple((name, np.shape(value)) for name, value in arrays.items())


class FlatParams(dict):
    """Name -> array views into one contiguous float64 vector ``flat``, laid
    out in ``layout`` order; ``flat`` starts at zero. Assigning a name copies
    into its view."""

    def __init__(self, layout: Layout):
        super().__init__()
        self.layout = layout
        self.flat = np.zeros(sum(prod(shape) for _, shape in layout))
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
# activation). Hidden layers are "relu"; the last uses the spec's output. A
# plain layer's views are (in, out) and (1, out); a stacked layer's are
# (K, in, out) and (K, 1, out).
Layer = Tuple[np.ndarray, np.ndarray, str]


def _activations(spec: MLPSpec) -> Tuple[str, ...]:
    return ("relu",) * (spec.layer_count - 1) + (spec.output,)


def bind_mlp(spec: MLPSpec, params: Mapping[str, np.ndarray], prefix: str = "") -> Tuple[Layer, ...]:
    """Resolve an MLP's layers in ``params`` once, checking their shapes.

    The layers hold views of the arrays themselves, so they follow any
    in-place write to ``params`` (an agent's ``FlatParams`` are only ever
    written in place).
    """
    for name, shape in mlp_layout(spec, prefix):
        if params[name].shape != shape:
            raise ConfigurationError(
                f"parameter {name} has shape {params[name].shape}, spec wants {shape}")
    return tuple(
        (params[f"{prefix}{i}.weight"], params[f"{prefix}{i}.bias"][None, :], activation)
        for i, activation in enumerate(_activations(spec))
    )


def bind_stacked_mlp(spec: MLPSpec, params: FlatParams, prefixes: Sequence[str]) -> Tuple[Layer, ...]:
    """Bind the MLPs named by ``prefixes``, all of ``spec`` and laid out one
    after another in ``params`` in that order, as one stacked MLP whose
    layers are views into ``params.flat``: no copy and no change of layout.
    ``run_mlp`` and ``mlp_backward`` then run all of them at once."""
    layout = params.layout
    want = tuple(entry for prefix in prefixes for entry in mlp_layout(spec, prefix))
    first = layout.index(want[0]) if want[0] in layout else len(layout)
    if layout[first:first + len(want)] != want:
        raise ConfigurationError(
            f"parameters of {', '.join(prefixes)} are not laid out one after another "
            f"as the spec wants")
    start = sum(prod(shape) for _, shape in layout[:first])
    block = params.flat[start:start + sum(prod(shape) for _, shape in want)]
    block = block.reshape(len(prefixes), -1)  # one row per MLP, a view
    layers = []
    at = 0
    for i, activation in enumerate(_activations(spec)):
        n_in, n_out = spec.sizes[i], spec.sizes[i + 1]
        weight = block[:, at:at + n_in * n_out].reshape(len(prefixes), n_in, n_out)
        at += n_in * n_out
        bias = block[:, at:at + n_out].reshape(len(prefixes), 1, n_out)
        at += n_out
        layers.append((weight, bias, activation))
    return tuple(layers)


def run_mlp(
    layers: Tuple[Layer, ...], a: np.ndarray, keep_cache: bool = False
) -> Tuple[np.ndarray, Optional[List[np.ndarray]]]:
    """Affine + activation chain over bound layers for a float64 batch ``a``
    of shape ``(B, in)``; stacked layers give ``(K, B, out)``. Returns the
    output and, with ``keep_cache``, the activations ``[a, out_0, ...,
    out_{L-1}]`` that ``mlp_backward`` consumes (else None)."""
    if a.shape[-1] != layers[0][0].shape[-2]:
        raise ConfigurationError(
            f"input width {a.shape[-1]} does not match spec input size {layers[0][0].shape[-2]}"
        )
    cache = [a] if keep_cache else None
    for w, b, activation in layers:
        z = np.matmul(a, w)
        z += b  # the pass's own array, so the bias and ReLU go in place
        if activation == "relu":
            a = np.maximum(z, 0.0, out=z)
        elif activation == "softmax":
            a = _softmax_rows(z)
        elif activation == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = z
        if keep_cache:
            cache.append(a)
    return a, cache


def mlp_backward(
    layers: Tuple[Layer, ...],
    grads: Tuple[Layer, ...],
    cache: List[np.ndarray],
    output_gradient: np.ndarray,
    input_grad: bool = True,
) -> Optional[np.ndarray]:
    """Backpropagate d(loss)/d(output), a batch like the forward output,
    through the forward pass of the bound ``layers`` whose activations
    ``run_mlp`` kept (``cache``).

    ``grads`` are the same MLP bound on a gradient set; each layer's weight
    and bias gradients, summed over the batch rows, overwrite its views.
    Returns the gradient w.r.t. the input, or None with ``input_grad=False``.
    For stacked layers the input gradient is one per MLP, ``(K, B, in)``.
    A hidden ReLU layer masks its gradient in place (the array is the pass's
    own), so a pass allocates no gradient per hidden layer;
    ``output_gradient`` is left as it was.
    """
    if len(cache) != len(layers) + 1:
        raise ConfigurationError("cache does not match the layers (layer count differs)")
    dy = output_gradient
    if dy.shape != cache[-1].shape:
        raise ConfigurationError(
            f"output_gradient shape {dy.shape} does not match forward output {cache[-1].shape}")
    last = len(layers) - 1
    for i in range(last, -1, -1):
        w, _, activation = layers[i]
        weight_grad, bias_grad, _ = grads[i]
        a = cache[i + 1]
        if activation == "relu":
            dz = np.multiply(dy, a > 0.0, out=dy if i < last else None)
        elif activation == "softmax":
            dz = softmax_grad(a, dy)
        elif activation == "sigmoid":
            dz = dy * a * (1.0 - a)
        else:
            dz = dy
        np.matmul(cache[i].swapaxes(-1, -2), dz, out=weight_grad)
        # the reduction np.sum makes, without its Python wrapper
        np.add.reduce(dz, axis=-2, out=bias_grad, keepdims=True)
        if i == 0 and not input_grad:
            return None
        dy = np.matmul(dz, w.swapaxes(-1, -2))
    return dy


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
    """Squared-gradient accumulators, laid out like the parameters they
    serve, and the step's work vector, so a step allocates nothing
    parameter-sized. The gradient is the caller's (an agent's ``grads``)."""

    learning_rate: float
    accumulators: FlatParams

    def __post_init__(self) -> None:
        self._work = np.empty(self.accumulators.flat.size)  # the step's denominator

    @classmethod
    def for_params(cls, params: FlatParams, learning_rate: float) -> "AdaGradState":
        return cls(learning_rate=learning_rate, accumulators=FlatParams(params.layout))


def adagrad_update(params: FlatParams, grads: FlatParams, state: AdaGradState,
                   clip: Optional[float] = None) -> None:
    """One AdaGrad step over the whole parameter vector, in place: optional
    per-coordinate clip of g to +-clip, then acc += g^2 and
    p -= lr * g / (sqrt(acc) + EPS_NUM).

    ``params`` and ``grads`` are ``FlatParams`` in the accumulators' layout
    (an agent's are), and ``grads`` are used up: the step overwrites them.
    """
    layout = state.accumulators.layout
    for what, given in (("params", params), ("grads", grads)):
        if not (isinstance(given, FlatParams)
                and (given.layout is layout or given.layout == layout)):
            raise UsageError(f"{what} must be FlatParams laid out like the accumulators")
    g = grads.flat
    if clip is not None:
        np.clip(g, -clip, clip, out=g)
    finite = np.isfinite(g)
    if not finite.all():
        name = params.name_at(int(np.argmin(finite)))
        raise TrainingError(f"non-finite gradient for parameter {name!r}")
    acc = state.accumulators.flat
    denom = state._work
    np.square(g, out=denom)
    acc += denom
    np.sqrt(acc, out=denom)
    denom += EPS_NUM
    np.multiply(state.learning_rate, g, out=g)
    g /= denom
    params.flat -= g
