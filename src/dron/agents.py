"""Q-value architectures: DQN baseline, DRON-concat, and DRON-MoE.

All three map state features (and, for the DRON variants, observed-opponent
features) to one value per action. DRON-MoE additionally exposes its gating
distribution, and either DRON variant can carry a multitask head that
predicts the opponent's strategy type or next action from the opponent
embedding.

``AgentSpec`` holds the only copy of the variant's defaults and rules (the
config keys ``agent``, ``experts``, ``multitask``, ``multitask_weight``);
each rule names the config keys it found at fault.

Component parameter names are stable (``state_tower.0.weight``,
``expert.2.1.bias``, ``gate.0.weight``, ...) so checkpoints can round-trip.

Bound layers: an agent resolves every component network's layers in its
parameters once (``nn.bind_mlp``), when its ``params`` are set, and runs them
on every call without looking names up again. The K experts of DRON-MoE are
bound as one stacked network (``nn.bind_stacked_mlp``): their parameters are
consecutive, equal-sized blocks of the flat vector, so each layer is one
``(K, in, out)`` weight view and one ``(K, 1, out)`` bias view, and a pass
makes one batched matmul per layer instead of K. The names, their order and
the vector's layout stay per expert. The layers are views into the agent's
flat parameter vector, which AdaGrad and ``params[name] = value`` write in
place, so they stay current; assigning ``agent.params`` rebinds. Every pass
runs on the agent's own parameters: the frozen target of a TD step is an
``Agent`` built at each sync (``rl.sync_target``). Acting (``q_values``,
``q_and_gate``) never computes the multitask opponent head, which only
training reads. The gate-weighted expert Q-values, and in the backward pass
the experts' input gradients, are added from zero in expert order, as
running one expert at a time would, so the stacked pass gives the same bits.

One vector or a batch: every pass runs on a batch (``nn.as_batch`` makes one
vector a one-row batch), and ``q_values``, ``q_and_gate``, ``encode`` and
``predict_opponent`` each drop the row again for a one-vector call
(``np.ndim(x) == 1``), so a vector gives a vector with the bits of that
one-row batch. A training pass (``forward_train``) keeps, per network, the
activation list of ``nn.run_mlp``, which ``backward_train`` hands back to
``nn.mlp_backward``.

Gradients: an agent owns one gradient set, ``grads``, laid out like its
parameters. Its first ``backward_train`` allocates it and binds the networks
on it as on the parameters; every call overwrites it whole, zeroing a head
the pass does not reach, and returns it, so ``nn.mlp_backward`` writes into
the same views every step. An agent that never trains, such as the frozen
target built at each sync, holds none (``grads`` is None).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import nn, soccer
from . import quizbowl as qb
from .errors import ConfigurationError, UsageError
from .nn import MLPSpec, ParamSet

KINDS = ("dqn", "dron_concat", "dron_moe")
MULTITASK_MODES = ("none", "action", "type")

# fixed per-component seed offsets so shared components initialize
# identically whether or not optional heads exist
_COMPONENT_STREAMS = {
    "q_net": 0,
    "state_tower": 1,
    "opponent_tower": 2,
    "q_head": 3,
    "gate": 4,
    "opponent_head": 5,
    "expert": 16,  # expert i uses stream 16 + i
}


def has_opponent_tower(kind: str) -> bool:
    """Whether an agent of `kind` reads opponent features: `dqn` sees only
    the state."""
    return kind != "dqn"


@dataclass(frozen=True)
class AgentSpec:
    """Architecture description shared by all agent kinds.

    ``state_hidden`` are the tower layers producing the state embedding h_s;
    ``head_hidden`` are the layers above it (the remaining DQN hiddens, the
    post-concatenation hiddens, or each expert's hiddens). ``multitask_outputs``
    is the class count for categorical supervision or 1 for the scalar
    (sigmoid, mean-squared-error) head.
    """

    kind: str
    state_dim: int
    action_count: int
    opponent_dim: int = 0
    state_hidden: Tuple[int, ...] = (50,)
    head_hidden: Tuple[int, ...] = (50,)
    opponent_hidden: int = 50
    experts: int = 3
    multitask: str = "none"
    multitask_weight: float = 1.0
    multitask_outputs: int = 1
    multitask_loss: str = "cross_entropy"

    def __post_init__(self) -> None:
        # the variant's rules, named by config key so a config file names a line
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown agent kind {self.kind!r}", keys=("agent",))
        if self.multitask not in MULTITASK_MODES:
            raise ConfigurationError(f"unknown multitask mode {self.multitask!r}",
                                     keys=("multitask",))
        if self.kind == "dron_moe" and self.experts < 1:
            raise ConfigurationError(f"experts must be >= 1 for dron_moe, got {self.experts}",
                                     keys=("agent", "experts"))
        if not has_opponent_tower(self.kind) and self.multitask != "none":
            raise ConfigurationError(
                f"multitask must be none for dqn (no opponent tower), got {self.multitask!r}",
                keys=("agent", "multitask"))
        # a nan or inf weight makes every update non-finite
        if not (math.isfinite(self.multitask_weight) and self.multitask_weight >= 0.0):
            raise ConfigurationError(
                f"multitask_weight must be finite and >= 0, got {self.multitask_weight}",
                keys=("multitask_weight",))
        for key in ("state_dim", "action_count", "opponent_hidden", "multitask_outputs"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("state_hidden", "head_hidden"):
            sizes = getattr(self, key)
            if not sizes or min(sizes) < 1:
                raise ConfigurationError(f"{key} must be one or more sizes >= 1, got {sizes}")
        if has_opponent_tower(self.kind) and self.opponent_dim < 1:
            raise ConfigurationError(f"{self.kind} requires opponent features")
        if self.multitask == "none" and self.multitask_outputs != 1:
            raise ConfigurationError(
                f"multitask_outputs must be 1 without a multitask head, "
                f"got {self.multitask_outputs}")
        if self.multitask_loss not in ("cross_entropy", "mean_squared"):
            raise ConfigurationError(f"unknown multitask loss {self.multitask_loss!r}")

    @property
    def hs_size(self) -> int:
        return self.state_hidden[-1]


class Agent:
    """An agent kind plus its parameters; forward passes are read-only."""

    def __init__(self, spec: AgentSpec, params: Optional[ParamSet] = None, seed: int = 0):
        self.spec = spec
        self._specs = _component_specs(spec)
        self._layout = param_layout(spec)
        self.grads: Optional[nn.FlatParams] = None  # bound by the first backward_train
        self.params = params if params is not None else self._init(seed)

    @property
    def params(self) -> nn.FlatParams:
        """All parameters as views into one flat vector, in component order."""
        return self._params

    @params.setter
    def params(self, params: ParamSet) -> None:
        # copies, so the agent never shares arrays with the caller's dict
        self._params = nn.FlatParams.of(params, self._layout)
        self._nets = self._bind(self._params)

    def _bind(self, flat: nn.FlatParams) -> Dict[str, Tuple[nn.Layer, ...]]:
        """Every component network bound on ``flat``, the parameters or a
        gradient set laid out like them; DRON-MoE's experts as one stacked
        network, ``experts``."""
        nets = {name: nn.bind_mlp(spec, flat, f"{name}.")
                for name, spec in self._specs.items() if not name.startswith("expert.")}
        if self.spec.kind == "dron_moe":
            nets["experts"] = nn.bind_stacked_mlp(
                self._specs["expert.0"], flat,
                [f"expert.{i}." for i in range(self.spec.experts)])
        return nets

    def _init(self, seed: int) -> ParamSet:
        params: ParamSet = {}
        for name, spec in self._specs.items():
            base, _, idx = name.partition(".")
            stream = _COMPONENT_STREAMS[base] + (int(idx) if idx else 0)
            rng = np.random.default_rng([seed, stream])
            params.update(nn.init_params(spec, rng, prefix=f"{name}."))
        return params

    # -- inference ---------------------------------------------------------

    def q_values(self, phi_s: np.ndarray, phi_o: Optional[np.ndarray] = None) -> np.ndarray:
        """Action values for one observation or a batch of observations."""
        q = self._forward(phi_s, phi_o, train=False).q
        return q[0] if np.ndim(phi_s) == 1 else q

    def q_and_gate(
        self, phi_s: np.ndarray, phi_o: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Action values and the MoE gate for one observation or a batch."""
        if self.spec.kind != "dron_moe":
            raise UsageError(f"{self.spec.kind} has no gate")
        out = self._forward(phi_s, phi_o, train=False)
        return (out.q[0], out.gate[0]) if np.ndim(phi_s) == 1 else (out.q, out.gate)

    def encode(self, phi_s: np.ndarray, phi_o: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """State and opponent embeddings (h_s, h_o)."""
        if self.spec.kind == "dqn":
            raise UsageError("dqn has no separate towers to encode with")
        return _run(self._nets["state_tower"], phi_s), _run(self._nets["opponent_tower"], phi_o)

    def predict_opponent(self, ho: np.ndarray) -> np.ndarray:
        """Supervision-head prediction from the opponent embedding."""
        if self.spec.multitask == "none":
            raise UsageError("agent has no multitask head")
        return _run(self._nets["opponent_head"], ho)

    # -- training ----------------------------------------------------------

    def forward_train(self, phi_s: np.ndarray, phi_o: Optional[np.ndarray]) -> "_Forward":
        return self._forward(phi_s, phi_o, train=True)

    def backward_train(
        self, fwd: "_Forward", dq: np.ndarray, dsupervision: Optional[np.ndarray] = None
    ) -> nn.FlatParams:
        """Route gradients w.r.t. the Q output (and optionally the
        supervision-head output) back to every parameter, into the agent's
        gradient set ``grads``, laid out like ``params``: it is overwritten
        whole (a head that gets no gradient is zeroed) and returned."""
        spec = self.spec
        if self.grads is None:
            self.grads = nn.FlatParams(self._layout)
            self._grad_nets = self._bind(self.grads)
        nets, grad_nets, caches = self._nets, self._grad_nets, fwd.caches
        if dsupervision is None and spec.multitask != "none":
            for weight, bias, _ in grad_nets["opponent_head"]:
                weight.fill(0.0)
                bias.fill(0.0)
        if spec.kind == "dqn":
            nn.mlp_backward(nets["q_net"], grad_nets["q_net"], caches["q_net"], dq,
                            input_grad=False)
            return self.grads

        if spec.kind == "dron_concat":
            dx = nn.mlp_backward(nets["q_head"], grad_nets["q_head"], caches["q_head"], dq)
            dhs = dx[..., : spec.hs_size]
            dho = dx[..., spec.hs_size :]
        else:  # dron_moe
            gate_by_expert = fwd.gate.T[:, :, None]  # (K, B, 1)
            dx = nn.mlp_backward(nets["experts"], grad_nets["experts"], caches["experts"],
                                 gate_by_expert * dq)
            dhs = np.add.reduce(dx, axis=0, initial=0.0)  # as in the forward pass
            dw = np.empty_like(fwd.gate)
            np.add.reduce(fwd.expert_q * dq, axis=-1, out=dw.T)
            dgate_pre = nn.softmax_grad(fwd.gate, dw)
            dho = nn.mlp_backward(nets["gate"], grad_nets["gate"], caches["gate"], dgate_pre)

        if dsupervision is not None:
            if spec.multitask == "none":
                raise UsageError("supervision gradient given but agent has no head")
            dho = dho + nn.mlp_backward(nets["opponent_head"], grad_nets["opponent_head"],
                                        caches["opponent_head"], dsupervision)

        nn.mlp_backward(nets["opponent_tower"], grad_nets["opponent_tower"],
                        caches["opponent_tower"], dho, input_grad=False)
        nn.mlp_backward(nets["state_tower"], grad_nets["state_tower"],
                        caches["state_tower"], dhs, input_grad=False)
        return self.grads

    # -- internals ----------------------------------------------------------

    def _forward(self, phi_s: np.ndarray, phi_o: Optional[np.ndarray], train: bool) -> "_Forward":
        """One pass over the bound networks. ``train`` keeps the caches
        ``backward_train`` needs and runs the opponent head; acting needs
        neither."""
        nets = self._nets
        spec = self.spec
        S = nn.as_batch(phi_s)
        caches: Dict[str, Optional[List[np.ndarray]]] = {}

        if spec.kind == "dqn":
            q, caches["q_net"] = nn.run_mlp(nets["q_net"], S, train)
            return _Forward(q, None, None, None, caches)

        if phi_o is None:
            raise ConfigurationError(f"{spec.kind} requires opponent features")
        O = nn.as_batch(phi_o)
        hs, caches["state_tower"] = nn.run_mlp(nets["state_tower"], S, train)
        ho, caches["opponent_tower"] = nn.run_mlp(nets["opponent_tower"], O, train)

        gate = None
        expert_q = None
        if spec.kind == "dron_concat":
            q, caches["q_head"] = nn.run_mlp(
                nets["q_head"], np.concatenate([hs, ho], axis=1), train)
        else:
            gate_pre, caches["gate"] = nn.run_mlp(nets["gate"], ho, train)
            gate = nn.softmax(gate_pre)
            expert_q, caches["experts"] = nn.run_mlp(nets["experts"], hs, train)
            # from zero, in expert order: the sum one expert at a time makes
            q = np.add.reduce(gate.T[:, :, None] * expert_q, axis=0, initial=0.0)

        supervision = None
        if train and spec.multitask != "none":
            supervision, caches["opponent_head"] = nn.run_mlp(nets["opponent_head"], ho, True)
        return _Forward(q, gate, expert_q, supervision, caches)


@dataclass
class _Forward:
    q: np.ndarray
    gate: Optional[np.ndarray]
    expert_q: Optional[np.ndarray]  # (K, B, actions), one row block per expert
    supervision: Optional[np.ndarray]
    caches: Dict[str, Optional[List[np.ndarray]]]  # each net's activations; None outside training


def _run(layers: Tuple[nn.Layer, ...], x: np.ndarray) -> np.ndarray:
    """``nn.run_mlp`` on one vector or a batch, returned in the same form."""
    out, _ = nn.run_mlp(layers, nn.as_batch(x))
    return out[0] if np.ndim(x) == 1 else out


def param_layout(spec: AgentSpec) -> nn.Layout:
    """Names and shapes of an agent's parameters, in flat-vector order."""
    return tuple(entry for name, mlp in _component_specs(spec).items()
                 for entry in nn.mlp_layout(mlp, f"{name}."))


def _component_specs(spec: AgentSpec) -> Dict[str, MLPSpec]:
    comps: Dict[str, MLPSpec] = {}
    if spec.kind == "dqn":
        comps["q_net"] = MLPSpec(
            (spec.state_dim, *spec.state_hidden, *spec.head_hidden, spec.action_count)
        )
        return comps
    comps["state_tower"] = MLPSpec((spec.state_dim, *spec.state_hidden), output="relu")
    comps["opponent_tower"] = MLPSpec((spec.opponent_dim, spec.opponent_hidden), output="relu")
    if spec.kind == "dron_concat":
        comps["q_head"] = MLPSpec(
            (spec.hs_size + spec.opponent_hidden, *spec.head_hidden, spec.action_count)
        )
    else:
        for i in range(spec.experts):
            comps[f"expert.{i}"] = MLPSpec((spec.hs_size, *spec.head_hidden, spec.action_count))
        comps["gate"] = MLPSpec((spec.opponent_hidden, spec.experts), output="relu")
    if spec.multitask != "none":
        output = "sigmoid" if spec.multitask_loss == "mean_squared" else "softmax"
        comps["opponent_head"] = MLPSpec(
            (spec.opponent_hidden, spec.multitask_outputs), output=output
        )
    return comps


# -- operation-style entry points -------------------------------------------


def encode(agent: Agent, phi_s: np.ndarray, phi_o: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return agent.encode(phi_s, phi_o)


def q_dqn(agent: Agent, phi_s: np.ndarray) -> np.ndarray:
    if agent.spec.kind != "dqn":
        raise UsageError("q_dqn called on a non-dqn agent")
    return agent.q_values(phi_s)


def q_dron_concat(agent: Agent, phi_s: np.ndarray, phi_o: np.ndarray) -> np.ndarray:
    if agent.spec.kind != "dron_concat":
        raise UsageError("q_dron_concat called on a non-concat agent")
    return agent.q_values(phi_s, phi_o)


def q_dron_moe(
    agent: Agent, phi_s: np.ndarray, phi_o: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    if agent.spec.kind != "dron_moe":
        raise UsageError("q_dron_moe called on a non-moe agent")
    return agent.q_and_gate(phi_s, phi_o)


def predict_opponent(agent: Agent, ho: np.ndarray) -> np.ndarray:
    return agent.predict_opponent(ho)


def combined_loss(q_loss: float, supervision_loss: float, weight: float) -> float:
    """Joint objective: Q loss plus the weighted supervision loss."""
    if weight < 0:
        raise UsageError("multitask weight must be non-negative")
    return q_loss + weight * supervision_loss


def soccer_agent_spec(kind: str, multitask: str = AgentSpec.multitask, **variant) -> AgentSpec:
    """Standard soccer sizes, read from the `soccer` module: 15 state
    features, 16 opponent features, 5 actions, 50-unit hidden layers
    everywhere. ``variant`` is ``experts`` and ``multitask_weight``."""
    classes = {"type": len(soccer.MODES), "action": len(soccer.MOVE_CATEGORIES)}
    return AgentSpec(
        kind=kind, state_dim=soccer.FEATURES.shape[1], action_count=len(soccer.ACTIONS),
        opponent_dim=0 if kind == "dqn" else soccer.OPPONENT_DIM,
        state_hidden=(50,), head_hidden=(50,), opponent_hidden=50,
        multitask=multitask, multitask_outputs=classes.get(multitask, 1),
        multitask_loss="cross_entropy", **variant,
    )


def quiz_agent_spec(kind: str, vocab: int = qb.QuizConfig.vocab,
                    multitask: str = AgentSpec.multitask, **variant) -> AgentSpec:
    """Standard quiz-bowl sizes, read from the `quizbowl` module: 2V+2 state
    features, 3 opponent features, 2 actions, 4 opponent types for the type
    head, 128-unit hidden layers, 10-unit opponent embedding."""
    outputs = {"type": qb.OPPONENT_TYPES}.get(multitask, 1)
    loss = "mean_squared" if multitask == "action" else "cross_entropy"
    return AgentSpec(
        kind=kind, state_dim=qb.state_dim(vocab), action_count=len(qb.ACTIONS),
        opponent_dim=0 if kind == "dqn" else qb.OPPONENT_DIM,
        state_hidden=(128,), head_hidden=(128,), opponent_hidden=10,
        multitask=multitask, multitask_outputs=outputs, multitask_loss=loss, **variant,
    )
