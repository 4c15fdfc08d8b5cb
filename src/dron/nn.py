"""Dense feed-forward primitives: forward/backward passes, losses, AdaGrad.

Everything operates on plain float64 numpy arrays. A parameter set is a flat
dict mapping names like ``"state_tower.0.weight"`` to arrays; an MLP owns the
names ``"{prefix}{i}.weight"`` / ``"{prefix}{i}.bias"`` for each of its layers.
``run_mlp`` and ``mlp_backward`` take a batch ``(B, in)``; weight gradients
are sums over the batch rows.

Bound layers: ``bind_stacked_mlp`` resolves K MLPs of one spec that lie one
after another in a ``FlatParams`` once, checks their names and shapes, and
binds them as one stacked MLP: one ``(weight, bias, activation)`` tuple per
layer, each weight a ``(K, in, out)`` view and each bias a ``(K, 1, out)``
view of ``flat``, so one batched ``np.matmul`` per layer runs all K; a
stacked pass gives each MLP the bits its own pass would. ``bind_mlp`` is its
one-MLP case, the ``[0]`` slices: an ``(in, out)`` weight and a ``(1, out)``
bias view per layer. ``run_mlp`` runs the chain over bound layers and, only
when asked, keeps the pass's activations: the list ``[input, out_0, ...,
out_{L-1}]``, where layer i reads entry i and writes entry i+1.
``mlp_backward`` runs that list back, writing the weight gradients into bound
gradient views (the same binding made on the gradient set). A caller that
runs an MLP many times (an agent) binds it once and runs the bound layers.

Losses: ``loss_and_grad`` takes a batch with one scalar target per row; one
vector with a scalar target is a one-row batch, as in ``Agent.q_values``.

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


def bind_mlp(spec: MLPSpec, params: FlatParams, prefix: str = "") -> Tuple[Layer, ...]:
    """The one-MLP case of ``bind_stacked_mlp``: each layer's ``[0]`` slice,
    an ``(in, out)`` weight view and a ``(1, out)`` bias view into
    ``params.flat``."""
    return tuple((weight[0], bias[0], activation)
                 for weight, bias, activation in bind_stacked_mlp(spec, params, [prefix]))


def bind_stacked_mlp(spec: MLPSpec, params: FlatParams, prefixes: Sequence[str]) -> Tuple[Layer, ...]:
    """Bind the MLPs named by ``prefixes``, all of ``spec`` and laid out one
    after another in ``params`` in that order, as one stacked MLP whose
    layers are views into ``params.flat``: no copy and no change of layout.
    ``run_mlp`` and ``mlp_backward`` then run all of them at once. The
    check names the first parameter whose name or shape is out of place."""
    layout = params.layout
    want = tuple(entry for prefix in prefixes for entry in mlp_layout(spec, prefix))
    names = [name for name, _ in layout]
    first = names.index(want[0][0]) if want[0][0] in names else len(layout)
    got = layout[first:first + len(want)]
    if got != want:
        at = next(i for i, entry in enumerate(want) if i >= len(got) or got[i] != entry)
        name, shape = want[at]
        if at < len(got) and got[at][0] == name:
            raise ConfigurationError(
                f"parameter {name} has shape {got[at][1]}, spec wants {shape}")
        raise ConfigurationError(
            f"parameters of {', '.join(prefixes)} are not laid out one after another "
            f"as the spec wants: {name} is {'out of place' if name in names else 'missing'}")
    start = sum(prod(shape) for _, shape in layout[:first])
    block = params.flat[start:start + sum(prod(shape) for _, shape in want)]
    block = block.reshape(len(prefixes), -1)  # one row per MLP, a view
    views, at = [], 0  # each weight (K, in, out) and each bias (K, 1, out)
    for _, shape in mlp_layout(spec):
        views.append(block[:, at:at + prod(shape)].reshape(len(prefixes), -1, shape[-1]))
        at += prod(shape)
    activations = ("relu",) * (spec.layer_count - 1) + (spec.output,)
    return tuple(zip(views[::2], views[1::2], activations))


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
            a = softmax(z)
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


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max-subtraction) over the last axis."""
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise UsageError("softmax of an empty vector")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_grad(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to the logits (row-wise)."""
    inner = (probs * dprobs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - inner)


def loss_and_grad(
    kind: str, predictions: np.ndarray, targets: Union[np.ndarray, int, float]
) -> Tuple[Union[np.ndarray, float], np.ndarray]:
    """Loss and its gradient w.r.t. the predictions, for a batch ``(B, width)``
    with one scalar target per row: the per-row losses ``(B,)`` and the
    gradient ``(B, width)``. One vector with a scalar target is a one-row
    batch, and gives that row's loss (a float) and gradient (a vector).

    kinds: ``mean_squared`` (one output per row, the target its value) and
    ``cross_entropy`` (each row a probability vector, the target a class
    index).
    """
    one = np.ndim(predictions) == 1
    P = as_batch(predictions)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != (() if one else P.shape[:1]):
        raise UsageError(f"need one scalar target per prediction row, got targets of "
                         f"shape {t.shape} for predictions of shape {np.shape(predictions)}")
    t = t.reshape(P.shape[0])
    width = P.shape[1]
    if kind == "mean_squared":
        if width != 1:
            raise UsageError(f"mean_squared needs one output per row, got {width}")
        diff = P - t[:, None]
        losses, grad = diff[:, 0] * diff[:, 0], 2.0 * diff  # the mean of one square
    elif kind == "cross_entropy":
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
        losses, grad = -np.log(denom[rows, idx]), -onehot / denom
    else:
        raise UsageError(f"unknown loss kind {kind!r}")
    return (float(losses[0]), grad[0]) if one else (losses, grad)


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
