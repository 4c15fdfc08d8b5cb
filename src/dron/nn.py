"""Dense feed-forward primitives: forward/backward passes, losses, AdaGrad.

Everything operates on plain float64 numpy arrays. A parameter set is a flat
dict mapping names like ``"state_tower.0.weight"`` to arrays; an MLP owns the
names ``"{prefix}{i}.weight"`` / ``"{prefix}{i}.bias"`` for each of its layers.
Forward/backward accept a single input vector ``(in,)`` or a batch ``(B, in)``.
Weight gradients returned for a batch are sums over the batch rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

from .errors import ConfigurationError, TrainingError, UsageError

ParamSet = Dict[str, np.ndarray]

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


def _as_batch(x: np.ndarray) -> Tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise ConfigurationError(f"expected a vector or a batch of vectors, got shape {x.shape}")


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


def mlp_forward(
    spec: MLPSpec, params: ParamSet, x: np.ndarray, prefix: str = ""
) -> Tuple[np.ndarray, ForwardCache]:
    """Affine + activation chain. Returns the output and a reusable cache."""
    a, squeeze = _as_batch(x)
    if a.shape[1] != spec.sizes[0]:
        raise ConfigurationError(
            f"input width {a.shape[1]} does not match spec input size {spec.sizes[0]}"
        )
    inputs: List[np.ndarray] = []
    outputs: List[np.ndarray] = []
    last = spec.layer_count - 1
    for i in range(spec.layer_count):
        w = params[f"{prefix}{i}.weight"]
        b = params[f"{prefix}{i}.bias"]
        if w.shape != (spec.sizes[i], spec.sizes[i + 1]):
            raise ConfigurationError(
                f"parameter {prefix}{i}.weight has shape {w.shape}, "
                f"spec wants {(spec.sizes[i], spec.sizes[i + 1])}"
            )
        inputs.append(a)
        z = a @ w + b
        if i < last:
            a = np.maximum(z, 0.0)
        elif spec.output == "relu":
            a = np.maximum(z, 0.0)
        elif spec.output == "softmax":
            a = _softmax_rows(z)
        elif spec.output == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = z
        outputs.append(a)
    cache = ForwardCache(inputs=inputs, outputs=outputs, squeeze=squeeze)
    return (a[0] if squeeze else a), cache


def mlp_backward(
    spec: MLPSpec,
    params: ParamSet,
    cache: ForwardCache,
    output_gradient: np.ndarray,
    prefix: str = "",
) -> Tuple[ParamSet, np.ndarray]:
    """Backpropagate d(loss)/d(output) through the cached forward pass.

    Returns (parameter gradients, gradient w.r.t. the input). Weight
    gradients are summed over batch rows.
    """
    if len(cache.inputs) != spec.layer_count:
        raise ConfigurationError("cache does not match spec (layer count differs)")
    dy, _ = _as_batch(output_gradient)
    if dy.shape != cache.outputs[-1].shape:
        raise ConfigurationError(
            f"output_gradient shape {dy.shape} does not match forward output "
            f"{cache.outputs[-1].shape}"
        )
    grads: ParamSet = {}
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
        x_in = cache.inputs[i]
        grads[f"{prefix}{i}.weight"] = x_in.T @ dz
        grads[f"{prefix}{i}.bias"] = dz.sum(axis=0)
        dy = dz @ params[f"{prefix}{i}.weight"].T
    return grads, (dy[0] if cache.squeeze else dy)


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


@dataclass
class AdaGradState:
    """Per-parameter accumulator of squared gradients."""

    learning_rate: float
    accumulators: ParamSet = field(default_factory=dict)
    eps: float = EPS_NUM

    @classmethod
    def for_params(cls, params: ParamSet, learning_rate: float) -> "AdaGradState":
        acc = {name: np.zeros_like(value) for name, value in params.items()}
        return cls(learning_rate=learning_rate, accumulators=acc)


def adagrad_update(params: ParamSet, grads: ParamSet, state: AdaGradState) -> None:
    """One AdaGrad step, in place: acc += g^2; p -= lr * g / (sqrt(acc) + eps)."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        acc = state.accumulators.get(name)
        if acc is None:
            acc = np.zeros_like(g)
            state.accumulators[name] = acc
        acc += g * g
        params[name] -= state.learning_rate * g / (np.sqrt(acc) + state.eps)
