"""Q-value architectures: DQN baseline, DRON-concat, and DRON-MoE.

All three map state features (and, for the DRON variants, observed-opponent
features) to one value per action. DRON-MoE additionally exposes its gating
distribution, and either DRON variant can carry a multitask head that
predicts the opponent's strategy type or next action from the opponent
embedding.

Component parameter names are stable (``state_tower.0.weight``,
``expert.2.1.bias``, ``gate.0.weight``, ...) so checkpoints can round-trip.

Bound layers: an agent resolves every component network's layers in its
parameters once (``nn.bind_mlp``), when its ``params`` are set, and runs them
on every call without looking names up again. The layers are views into the
agent's flat parameter vector, which AdaGrad and ``params[name] = value``
write in place, so they stay current; assigning ``agent.params`` rebinds. An
explicit ``params=`` argument is bound for that call only. Acting
(``q_values``, ``q_and_gate``) never computes the multitask opponent head,
which only training reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import nn
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
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown agent kind {self.kind!r}")
        if self.multitask not in MULTITASK_MODES:
            raise ConfigurationError(f"unknown multitask mode {self.multitask!r}")
        if self.state_dim < 1 or self.action_count < 1:
            raise ConfigurationError("state_dim and action_count must be positive")
        if not self.state_hidden or not self.head_hidden:
            raise ConfigurationError("state_hidden and head_hidden must be non-empty")
        if self.kind == "dron_moe" and self.experts < 1:
            raise ConfigurationError("dron_moe needs at least one expert")
        if self.kind != "dqn" and self.opponent_dim < 1:
            raise ConfigurationError(f"{self.kind} requires opponent features")
        if self.kind == "dqn" and self.multitask != "none":
            raise ConfigurationError("multitask supervision needs an opponent tower")
        if self.multitask_weight < 0:
            raise ConfigurationError("multitask_weight must be non-negative")
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
        self._experts = tuple(f"expert.{i}" for i in range(spec.experts))
        self._layout = tuple(
            entry for name, mlp in self._specs.items()
            for entry in nn.mlp_layout(mlp, f"{name}.")
        )
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

    def _bind(self, params: ParamSet) -> Dict[str, Tuple[nn.Layer, ...]]:
        return {name: nn.bind_mlp(spec, params, f"{name}.") for name, spec in self._specs.items()}

    def _bound(self, params: Optional[ParamSet]) -> Tuple[ParamSet, Dict[str, Tuple[nn.Layer, ...]]]:
        """The parameter set a call runs on and its bound networks: the
        agent's own, or ``params`` bound for this call (a plain dict is
        first copied into the agent's layout)."""
        if params is None:
            return self._params, self._nets
        if not isinstance(params, nn.FlatParams):
            params = nn.FlatParams.of(params, self._layout)
        return params, self._bind(params)

    def _init(self, seed: int) -> ParamSet:
        params: ParamSet = {}
        for name, spec in self._specs.items():
            base, _, idx = name.partition(".")
            stream = _COMPONENT_STREAMS[base] + (int(idx) if idx else 0)
            rng = np.random.default_rng([seed, stream])
            params.update(nn.init_params(spec, rng, prefix=f"{name}."))
        return params

    # -- inference ---------------------------------------------------------

    def q_values(
        self,
        phi_s: np.ndarray,
        phi_o: Optional[np.ndarray] = None,
        params: Optional[ParamSet] = None,
    ) -> np.ndarray:
        """Action values for one observation or a batch of observations."""
        return self._forward(phi_s, phi_o, params, train=False).q_squeezed

    def q_and_gate(
        self,
        phi_s: np.ndarray,
        phi_o: Optional[np.ndarray] = None,
        params: Optional[ParamSet] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        out = self._forward(phi_s, phi_o, params, train=False)
        return out.q_squeezed, out.gate_squeezed

    def encode(
        self,
        phi_s: np.ndarray,
        phi_o: np.ndarray,
        params: Optional[ParamSet] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """State and opponent embeddings (h_s, h_o)."""
        if self.spec.kind == "dqn":
            raise UsageError("dqn has no separate towers to encode with")
        _, nets = self._bound(params)
        return _run(nets["state_tower"], phi_s), _run(nets["opponent_tower"], phi_o)

    def predict_opponent(self, ho: np.ndarray, params: Optional[ParamSet] = None) -> np.ndarray:
        """Supervision-head prediction from the opponent embedding."""
        if self.spec.multitask == "none":
            raise UsageError("agent has no multitask head")
        _, nets = self._bound(params)
        return _run(nets["opponent_head"], ho)

    # -- training ----------------------------------------------------------

    def forward_train(
        self, phi_s: np.ndarray, phi_o: Optional[np.ndarray], params: Optional[ParamSet] = None
    ) -> "_Forward":
        return self._forward(phi_s, phi_o, params, train=True)

    def backward_train(
        self,
        fwd: "_Forward",
        dq: np.ndarray,
        dsupervision: Optional[np.ndarray] = None,
    ) -> nn.FlatParams:
        """Route gradients w.r.t. the Q output (and optionally the
        supervision-head output) back to every parameter; the result is laid
        out like ``params``."""
        p = fwd.params
        spec = self.spec
        grads = nn.FlatParams(self._layout)  # a head that gets no gradient keeps zeros
        if spec.kind == "dqn":
            nn.mlp_backward(self._specs["q_net"], p, fwd.caches["q_net"], dq, "q_net.",
                            out=grads, input_grad=False)
            return grads

        if spec.kind == "dron_concat":
            _, dx = nn.mlp_backward(self._specs["q_head"], p, fwd.caches["q_head"], dq,
                                    "q_head.", out=grads)
            dhs = dx[..., : spec.hs_size]
            dho = dx[..., spec.hs_size :]
        else:  # dron_moe
            dhs = np.zeros_like(fwd.hs)
            dw = np.empty_like(fwd.gate)
            for i in range(spec.experts):
                expert_dq = fwd.gate[:, i : i + 1] * dq
                _, dx = nn.mlp_backward(
                    self._specs[f"expert.{i}"], p, fwd.caches[f"expert.{i}"],
                    expert_dq, f"expert.{i}.", out=grads,
                )
                dhs += dx
                dw[:, i] = (fwd.expert_q[i] * dq).sum(axis=1)
            dgate_pre = nn.softmax_grad(fwd.gate, dw)
            _, dho = nn.mlp_backward(
                self._specs["gate"], p, fwd.caches["gate"], dgate_pre, "gate.", out=grads
            )

        if dsupervision is not None:
            if spec.multitask == "none":
                raise UsageError("supervision gradient given but agent has no head")
            _, dho_head = nn.mlp_backward(
                self._specs["opponent_head"], p, fwd.caches["opponent_head"],
                dsupervision, "opponent_head.", out=grads,
            )
            dho = dho + dho_head

        nn.mlp_backward(self._specs["opponent_tower"], p, fwd.caches["opponent_tower"], dho,
                        "opponent_tower.", out=grads, input_grad=False)
        nn.mlp_backward(self._specs["state_tower"], p, fwd.caches["state_tower"], dhs,
                        "state_tower.", out=grads, input_grad=False)
        return grads

    # -- internals ----------------------------------------------------------

    def _forward(
        self, phi_s: np.ndarray, phi_o: Optional[np.ndarray], params: Optional[ParamSet],
        train: bool,
    ) -> "_Forward":
        """One pass over the bound networks. ``train`` keeps the caches
        ``backward_train`` needs and runs the opponent head; acting needs
        neither."""
        p, nets = self._bound(params)
        spec = self.spec
        S, squeeze = nn.as_batch(phi_s)
        caches: Dict[str, Optional[nn.ForwardCache]] = {}

        if spec.kind == "dqn":
            q, caches["q_net"] = nn.run_mlp(nets["q_net"], S, train)
            return _Forward(self, p, q, None, None, None, None, None, caches, squeeze)

        if phi_o is None:
            raise ConfigurationError(f"{spec.kind} requires opponent features")
        O, _ = nn.as_batch(phi_o)
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
            expert_q = []
            q = np.zeros((S.shape[0], spec.action_count))
            for i, name in enumerate(self._experts):
                qi, caches[name] = nn.run_mlp(nets[name], hs, train)
                expert_q.append(qi)
                q += gate[:, i : i + 1] * qi

        supervision = None
        if train and spec.multitask != "none":
            supervision, caches["opponent_head"] = nn.run_mlp(nets["opponent_head"], ho, True)
        return _Forward(self, p, q, gate, expert_q, hs, ho, supervision, caches, squeeze)


@dataclass
class _Forward:
    agent: Agent
    params: ParamSet
    q: np.ndarray
    gate: Optional[np.ndarray]
    expert_q: Optional[List[np.ndarray]]
    hs: Optional[np.ndarray]
    ho: Optional[np.ndarray]
    supervision: Optional[np.ndarray]
    caches: Dict[str, Optional[nn.ForwardCache]]  # None outside training
    squeeze: bool

    @property
    def q_squeezed(self) -> np.ndarray:
        return self.q[0] if self.squeeze else self.q

    @property
    def gate_squeezed(self) -> np.ndarray:
        return self.gate[0] if self.squeeze else self.gate


def _run(layers: Tuple[nn.Layer, ...], x: np.ndarray) -> np.ndarray:
    """``nn.run_mlp`` on one vector or a batch, returned in the same form."""
    a, squeeze = nn.as_batch(x)
    out, _ = nn.run_mlp(layers, a)
    return out[0] if squeeze else out


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


def soccer_agent_spec(kind: str, multitask: str = "none", experts: int = 3,
                      multitask_weight: float = 1.0) -> AgentSpec:
    """Standard soccer sizes: 15 state features, 16 opponent features,
    5 actions, 50-unit hidden layers everywhere."""
    outputs = {"none": 1, "type": 2, "action": 5}[multitask]
    return AgentSpec(
        kind=kind, state_dim=15, action_count=5,
        opponent_dim=0 if kind == "dqn" else 16,
        state_hidden=(50,), head_hidden=(50,), opponent_hidden=50,
        experts=experts, multitask=multitask, multitask_weight=multitask_weight,
        multitask_outputs=outputs, multitask_loss="cross_entropy",
    )


def quiz_agent_spec(kind: str, vocab: int = 50, multitask: str = "none", experts: int = 3,
                    multitask_weight: float = 1.0) -> AgentSpec:
    """Standard quiz-bowl sizes: 2V+2 state features, 3 opponent features,
    2 actions, 128-unit hidden layers, 10-unit opponent embedding."""
    outputs = {"none": 1, "type": 4, "action": 1}[multitask]
    loss = "mean_squared" if multitask == "action" else "cross_entropy"
    return AgentSpec(
        kind=kind, state_dim=2 * vocab + 2, action_count=2,
        opponent_dim=0 if kind == "dqn" else 3,
        state_hidden=(128,), head_hidden=(128,), opponent_hidden=10,
        experts=experts, multitask=multitask, multitask_weight=multitask_weight,
        multitask_outputs=outputs, multitask_loss=loss,
    )
