"""Two-player grid soccer with mode-switching rule-based opponents.

The field is a 9x6 grid (columns 0-8, rows 0-5). The two middle rows of the
leftmost and rightmost columns are the goal areas; the remaining edge cells
of those columns are shaded and unplayable. Player A attacks the right goal,
player B the left goal. Both players move simultaneously; a move into a
shaded cell or off the grid becomes a stand. When both players would end on
the same cell, or they would swap cells, neither moves and the ball changes
hands. Carrying the ball onto the opposing goal scores (+1 / -1); one
hundred scoreless steps is a 0-0 tie.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, UsageError

Cell = Tuple[int, int]  # (col, row)

ACTIONS = ("N", "S", "E", "W", "stand")
ACTION_DELTAS = ((0, -1), (0, 1), (1, 0), (-1, 0), (0, 0))  # row 0 is the top

MOVE_CATEGORIES = (
    "approach_agent",
    "avoid_agent",
    "approach_agent_goal",
    "approach_own_goal",
    "stand",
)

MODES = ("offensive", "defensive")
MODE_POLICIES = ("mixed", "offensive", "defensive")


@dataclass(frozen=True)
class SoccerConfig:
    width: int = 9
    height: int = 6
    horizon: int = 100

    def __post_init__(self) -> None:
        if self.width < 3 or self.height < 2 or self.horizon < 1:
            raise ConfigurationError("soccer field too small or horizon < 1")

    @cached_property  # the goals are asked for several times per step
    def left_goal(self) -> Tuple[Cell, ...]:
        rows = self._goal_rows()
        return tuple((0, r) for r in rows)

    @cached_property
    def right_goal(self) -> Tuple[Cell, ...]:
        rows = self._goal_rows()
        return tuple((self.width - 1, r) for r in rows)

    def _goal_rows(self) -> Tuple[int, int]:
        mid = self.height // 2
        return (mid - 1, mid)

    @cached_property  # playable() asks for it several times per step
    def shaded(self) -> frozenset:
        rows = set(self._goal_rows())
        cells = set()
        for col in (0, self.width - 1):
            for row in range(self.height):
                if row not in rows:
                    cells.add((col, row))
        return frozenset(cells)

    def playable(self, cell: Cell) -> bool:
        col, row = cell
        return 0 <= col < self.width and 0 <= row < self.height and cell not in self.shaded

    @cached_property  # every step looks up eight move targets
    def move_targets(self) -> Dict[Cell, Tuple[Cell, ...]]:
        """Where each of the 5 actions leads from every cell of the grid: the
        neighbour in the action's direction if it is playable, else the cell
        itself."""
        table = {}
        for col in range(self.width):
            for row in range(self.height):
                targets = ((col + dc, row + dr) for dc, dr in ACTION_DELTAS)
                table[col, row] = tuple(t if self.playable(t) else (col, row) for t in targets)
        return table

    @cached_property  # featurize_state reads it every step
    def frame_features(self) -> Dict[bool, Tuple[float, ...]]:
        """``featurize_state``'s scale factors and its 9 constant features
        (both axis limits, the own and the opposing goal block), keyed by
        whether the perspective is player A: ``(sx, sy, constants)``."""
        sx = 1.0 / (self.width - 1)
        sy = 1.0 / (self.height - 1)

        def goal_block(goal: Tuple[Cell, ...]) -> List[float]:
            rows = sorted(g[1] for g in goal)
            return [goal[0][0] * sx, rows[0] * sy, rows[-1] * sy]

        def constants(own: Tuple[Cell, ...], opposing: Tuple[Cell, ...]) -> Tuple[float, ...]:
            return (0.0, (self.width - 1) * sx, 0.0, (self.height - 1) * sy,
                    *goal_block(own), *goal_block(opposing))

        return {
            True: (sx, sy, constants(self.left_goal, self.right_goal)),
            False: (sx, sy, constants(self.right_goal, self.left_goal)),
        }

    def goal_for(self, player: str) -> Tuple[Cell, ...]:
        """The goal `player` attacks."""
        return self.right_goal if player == "A" else self.left_goal

    def own_goal_of(self, player: str) -> Tuple[Cell, ...]:
        return self.left_goal if player == "A" else self.right_goal


DEFAULT_CONFIG = SoccerConfig()


@dataclass(frozen=True)
class SoccerState:
    pos_a: Cell
    pos_b: Cell
    ball: str  # "A" or "B"
    step: int = 0
    done: bool = False

    def position(self, player: str) -> Cell:
        return self.pos_a if player == "A" else self.pos_b


@dataclass
class StepEvents:
    collision: bool = False
    ball_taken_by: Optional[str] = None  # player who gained the ball
    goal_by: Optional[str] = None
    timeout: bool = False


def manhattan(a: Cell, b: Cell) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def goal_distance(cell: Cell, goal: Tuple[Cell, ...]) -> int:
    return min(manhattan(cell, g) for g in goal)


def sample_mode(rng: np.random.Generator, policy: str = "mixed") -> str:
    """Opponent mode for a new game: uniform for ``mixed``, else fixed."""
    if policy == "mixed":
        return MODES[int(rng.integers(0, 2))]
    if policy in MODES:
        return policy
    raise ConfigurationError(f"unknown mode policy {policy!r}")


def reset(
    config: SoccerConfig, rng: np.random.Generator, mode_policy: str = "mixed"
) -> Tuple[SoccerState, str]:
    """Fresh game: A uniform over playable left-half non-goal cells, B over
    the right half, ball owner uniform, opponent mode per policy."""
    half = config.width // 2
    goals = set(config.left_goal) | set(config.right_goal)
    left = [
        (c, r)
        for c in range(half)
        for r in range(config.height)
        if config.playable((c, r)) and (c, r) not in goals
    ]
    right = [
        (c, r)
        for c in range(config.width - half, config.width)
        for r in range(config.height)
        if config.playable((c, r)) and (c, r) not in goals
    ]
    pos_a = left[int(rng.integers(0, len(left)))]
    pos_b = right[int(rng.integers(0, len(right)))]
    ball = "A" if rng.random() < 0.5 else "B"
    mode = sample_mode(rng, mode_policy)
    return SoccerState(pos_a=pos_a, pos_b=pos_b, ball=ball), mode


def step(
    state: SoccerState, action_a: int, action_b: int, config: SoccerConfig = DEFAULT_CONFIG
) -> Tuple[SoccerState, float, bool, StepEvents]:
    """Resolve one simultaneous joint move; returns reward from A's side."""
    if state.done:
        raise UsageError("cannot step a finished episode")
    events = StepEvents()
    ta = config.move_targets[state.pos_a][action_a]
    tb = config.move_targets[state.pos_b][action_b]

    swap = ta == state.pos_b and tb == state.pos_a
    if ta == tb or swap:
        # blocked: nobody moves, pre-move owner loses the ball
        new_ball = "B" if state.ball == "A" else "A"
        events.collision = True
        events.ball_taken_by = new_ball
        ta, tb = state.pos_a, state.pos_b
    else:
        new_ball = state.ball

    next_state = SoccerState(pos_a=ta, pos_b=tb, ball=new_ball, step=state.step + 1)

    holder_pos = next_state.position(new_ball)
    if holder_pos in config.goal_for(new_ball):
        events.goal_by = new_ball
        reward = 1.0 if new_ball == "A" else -1.0
        return replace(next_state, done=True), reward, True, events
    if next_state.step >= config.horizon:
        events.timeout = True
        return replace(next_state, done=True), 0.0, True, events
    return next_state, 0.0, False, events


def featurize_state(
    state: SoccerState, config: SoccerConfig = DEFAULT_CONFIG, perspective: str = "A"
) -> np.ndarray:
    """15 features from one player's point of view: both positions, the axis
    limits, both goal areas, and ball possession. Coordinates are scaled to
    [0, 1] by the grid extents."""
    sx, sy, constants = config.frame_features[perspective == "A"]
    me = state.position(perspective)
    other = state.position("B" if perspective == "A" else "A")
    return np.array(
        [
            me[0] * sx, me[1] * sy,
            other[0] * sx, other[1] * sy,
            *constants,
            1.0 if state.ball == perspective else 0.0,
        ]
    )


def classify_move(
    state: SoccerState,
    action: int,
    config: SoccerConfig = DEFAULT_CONFIG,
    mover: str = "B",
) -> str:
    """Label one player's move relative to the primary agent.

    Priority on overlap: approach_agent, avoid_agent, approach_agent_goal,
    approach_own_goal; a move that does not change position is a stand.
    Distances are Manhattan, measured against the agent's pre-move position
    and the nearest cell of each goal.
    """
    agent = "A" if mover == "B" else "B"
    pos = state.position(mover)
    target = config.move_targets[pos][action]
    if target == pos:
        return "stand"
    agent_pos = state.position(agent)
    if manhattan(target, agent_pos) < manhattan(pos, agent_pos):
        return "approach_agent"
    if manhattan(target, agent_pos) > manhattan(pos, agent_pos):
        return "avoid_agent"
    agent_goal = config.own_goal_of(agent)
    if goal_distance(target, agent_goal) < goal_distance(pos, agent_goal):
        return "approach_agent_goal"
    own_goal = config.own_goal_of(mover)
    if goal_distance(target, own_goal) < goal_distance(pos, own_goal):
        return "approach_own_goal"
    return "stand"


@dataclass
class OpponentStats:
    """Observed behavior of the opposing player, reset every episode."""

    category_counts: np.ndarray = field(default_factory=lambda: np.zeros(5))
    last_category: Optional[int] = None
    last_action: Optional[int] = None
    ball_losses: int = 0  # times the opponent took the ball from us
    steps: int = 0

    def observe(self, category: str, action: int, lost_ball: bool) -> None:
        idx = MOVE_CATEGORIES.index(category)
        self.category_counts[idx] += 1
        self.last_category = idx
        self.last_action = action
        if lost_ball:
            self.ball_losses += 1
        self.steps += 1


def opponent_features(stats: OpponentStats) -> np.ndarray:
    """16 features: move-category frequencies, one-hot most recent category
    and raw action, and the rate of losing the ball to the opponent."""
    phi = np.zeros(16)
    if stats.steps > 0:
        phi[0:5] = stats.category_counts / stats.steps
    if stats.last_category is not None:
        phi[5 + stats.last_category] = 1.0
    if stats.last_action is not None:
        phi[10 + stats.last_action] = 1.0
    phi[15] = stats.ball_losses / max(1, stats.steps)
    return phi


def _argmin_actions(scores: List[float]) -> List[int]:
    best = min(scores)
    return [i for i, s in enumerate(scores) if s == best]


def rule_agent_act(
    state: SoccerState,
    mode: str,
    rng: np.random.Generator,
    config: SoccerConfig = DEFAULT_CONFIG,
    player: str = "B",
) -> int:
    """Hand-crafted two-mode policy.

    Offensive: carry the ball straight to the scoring goal, otherwise chase
    the ball holder. Defensive: keep away from the other player while holding
    the ball (never stepping into its own goal), otherwise guard the cell in
    front of its goal nearest the ball holder.
    """
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}")
    other = "B" if player == "A" else "A"
    pos = state.position(player)
    other_pos = state.position(other)
    has_ball = state.ball == player
    targets = config.move_targets[pos]

    if mode == "offensive":
        if has_ball:
            goal = config.goal_for(player)
            scores = [float(goal_distance(t, goal)) for t in targets]
        else:
            scores = [float(manhattan(t, other_pos)) for t in targets]
        choices = _argmin_actions(scores)
    else:
        own_goal = config.own_goal_of(player)
        if has_ball:
            usable = [i for i, t in enumerate(targets) if t not in own_goal]
            if not usable:
                usable = list(range(len(ACTIONS)))
            scores = [-float(manhattan(targets[i], other_pos)) for i in usable]
            choices = [usable[i] for i in _argmin_actions(scores)]
        else:
            guard_col = 1 if own_goal[0][0] == 0 else config.width - 2
            rows = sorted(g[1] for g in own_goal)
            guard_row = min(max(other_pos[1], rows[0]), rows[-1])
            guard = (guard_col, guard_row)
            if pos == guard:
                return ACTIONS.index("stand")
            scores = [float(manhattan(t, guard)) for t in targets]
            choices = _argmin_actions(scores)
    if len(choices) == 1:
        return choices[0]
    return choices[int(rng.integers(0, len(choices)))]


def render(state: SoccerState, config: SoccerConfig = DEFAULT_CONFIG) -> str:
    """One character per cell: players as A/B (holder starred), '#' shaded,
    '=' goal cells."""
    goals = set(config.left_goal) | set(config.right_goal)
    rows = []
    for r in range(config.height):
        row = []
        for c in range(config.width):
            cell = (c, r)
            if cell == state.pos_a:
                row.append("A*" if state.ball == "A" else "A ")
            elif cell == state.pos_b:
                row.append("B*" if state.ball == "B" else "B ")
            elif cell in config.shaded:
                row.append("# ")
            elif cell in goals:
                row.append("= ")
            else:
                row.append(". ")
        rows.append("".join(row))
    return "\n".join(rows)
