"""Two-player grid soccer with mode-switching rule-based opponents.

The field is a 9x6 grid (columns 0-8, rows 0-5). The two middle rows of the
leftmost and rightmost columns are the goal areas; the remaining edge cells
of those columns are shaded and unplayable. Player A, the learner, attacks
the right goal; player B, the rule agent, attacks the left goal. Both
players move simultaneously; a move into a shaded cell or off the grid
becomes a stand. When both players would end on the same cell, or they
would swap cells, neither moves and the ball changes hands. Carrying the
ball onto the opposing goal scores (+1 / -1); one hundred scoreless steps
is a 0-0 tie.

The game is played on this one field, so the field is module constants
(`WIDTH`, `HEIGHT`, `LEFT_GOAL`, `RIGHT_GOAL`, `SHADED`) and the rules are
read-only module tables over cell indices (cells are numbered column by
column, ``col * HEIGHT + row``), each built once at import with vectorised
numpy: the 5 move targets of each cell (`MOVE_TABLE`), the goal each player
attacks (`GOAL_MASK`), the start cells (`START_CELLS`), the rows of A's
state features (`FEATURE_ROWS`), the category of every move of B by (B's
cell, action, A's cell) (`CATEGORIES`) and B's tie set in every (mode, B's
cell, A's cell, B has the ball) (`TIE_SETS`). The tables hold only what the
game reads: the learner's view of the state and the rule agent's moves. A
game's state is in the tables' terms from `reset` to `render`:
`SoccerState` holds the two cell indices and the ball holder (0 for A, 1
for B), an opponent mode is a `MODES` index and a move category a
`MOVE_CATEGORIES` index, so every lookup indexes a table as it comes. The
(col, row) cells of the goals and of the shaded cells are read only to
build the tables and `render`'s board.

When the rule agent has more than one best move, it draws one with
``rng.integers(0, count)`` from its game's stream; a single best move draws
nothing.

One game against many. `reset`, `step`, `rule_agent_act`, `classify_move`
and `featurize_state` play one game, as training does; `step_many` and
`rule_agent_many` play many in lockstep over arrays of the same fields, as
`harness.evaluate_soccer` does. `OpponentTallies` serves both: one game is
a tally of one row. So two rules are still written twice, the block and
goal rule (`step`, `step_many`) and the tie draw (`rule_agent_act`,
`rule_agent_many`); the tests hold each pair equal. Merging them was
measured and rejected (2 shared cores, numpy 2.4.6): one game stepped
through the array forms costs about 52 µs per driver step against 12 µs
for the scalar forms, which would cost soccer training roughly 15% of its
steps per second, and `step_many` called on Python ints costs about 10 µs
against 2.6 µs for `step`. Only an agent with an opponent tower reads the
opponent's moves: a `dqn` game, trained or evaluated in lockstep, uses
none of `classify_move`, `OpponentTallies` or the `CATEGORIES` table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, UsageError

Cell = Tuple[int, int]  # (col, row)

ACTIONS = ("N", "S", "E", "W", "stand")
ACTION_DELTAS = ((0, -1), (0, 1), (1, 0), (-1, 0), (0, 0))  # row 0 is the top
STAND = ACTIONS.index("stand")

MOVE_CATEGORIES = (
    "approach_agent",
    "avoid_agent",
    "approach_agent_goal",
    "approach_own_goal",
    "stand",
)

HORIZON = 100  # scoreless steps before a game is a 0-0 tie

PLAYERS = ("A", "B")  # the player axis of the goal tables
MODES = ("offensive", "defensive")
MODE_POLICIES = ("mixed", "offensive", "defensive")


WIDTH, HEIGHT = 9, 6  # columns 0-8, rows 0-5
_GOAL_ROWS = (HEIGHT // 2 - 1, HEIGHT // 2)
LEFT_GOAL: Tuple[Cell, ...] = tuple((0, r) for r in _GOAL_ROWS)  # the goal B attacks
RIGHT_GOAL: Tuple[Cell, ...] = tuple((WIDTH - 1, r) for r in _GOAL_ROWS)  # the goal A attacks
SHADED = frozenset((col, row) for col in (0, WIDTH - 1)
                   for row in range(HEIGHT) if row not in _GOAL_ROWS)


def index(cell: Cell) -> int:
    """The table index of a cell of the grid."""
    return cell[0] * HEIGHT + cell[1]


# -- the rule tables ----------------------------------------------------------


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


# the column and row of every cell, in index order
_COL, _ROW = map(_read_only, np.divmod(np.arange(WIDTH * HEIGHT), HEIGHT))


def _mask(where) -> np.ndarray:
    """Whether each cell, in index order, is one of the cells `where`."""
    mask = np.zeros(WIDTH * HEIGHT, dtype=bool)
    mask[[index(c) for c in where]] = True
    return mask


def _move_table() -> np.ndarray:
    """Where each of the 5 actions leads from every cell, as cell indices
    (cells x 5): the neighbour in the action's direction if it is playable,
    else the cell itself."""
    dcol, drow = np.array(ACTION_DELTAS).T
    to_col, to_row = _COL[:, None] + dcol, _ROW[:, None] + drow
    inside = (to_col >= 0) & (to_col < WIDTH) & (to_row >= 0) & (to_row < HEIGHT)
    here = (_COL * HEIGHT + _ROW)[:, None]
    target = np.where(inside, to_col * HEIGHT + to_row, here)
    return np.where(_mask(SHADED)[target], here, target)


MOVE_TABLE = _read_only(_move_table())
# whether a cell is on the goal each player attacks (players x cells)
GOAL_MASK = _read_only(np.stack([_mask(RIGHT_GOAL), _mask(LEFT_GOAL)]))


# Manhattan distance between every two cells (cells x cells), int16
_DISTANCES = _read_only((np.abs(_COL[:, None] - _COL)
                         + np.abs(_ROW[:, None] - _ROW)).astype(np.int16))
# distance from every cell to the nearest cell of the goal each player
# attacks (players x cells)
_GOAL_DISTANCES = _read_only(np.stack([_DISTANCES[:, GOAL_MASK[p]].min(axis=1)
                                       for p in range(len(PLAYERS))]))


def _start_cells() -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The cells `reset` may place A on (playable non-goal cells of the left
    half) and B on (the right half), in index order."""
    half = WIDTH // 2
    free = ~(_mask(SHADED) | GOAL_MASK.any(axis=0))
    return tuple(tuple(np.flatnonzero(free & side).tolist())
                 for side in (_COL < half, _COL >= WIDTH - half))


START_CELLS = _start_cells()


def _feature_rows() -> Tuple[np.ndarray, np.ndarray]:
    """`featurize_state` as the sum of two rows of 15. One is looked up by
    (A's cell, A holds the ball) and holds A's position, the 10 constant
    features (both axis limits, A's own and A's opposing goal block) and
    the ball flag; the other, by B's cell, holds B's position. Each row is 0
    where the other has a value, so the sum is exact. Positions are scaled
    to [0, 1] by the grid extents."""
    sx = 1.0 / (WIDTH - 1)
    sy = 1.0 / (HEIGHT - 1)
    xy = np.stack([_COL * sx, _ROW * sy], axis=1)

    def goal_block(goal: Tuple[Cell, ...]) -> list:
        rows = sorted(g[1] for g in goal)
        return [goal[0][0] * sx, rows[0] * sy, rows[-1] * sy]

    own = np.zeros((len(xy), 2, 15))
    own[..., 0:2] = xy[:, None, :]
    own[..., 4:14] = [0.0, (WIDTH - 1) * sx, 0.0, (HEIGHT - 1) * sy,
                      *goal_block(LEFT_GOAL), *goal_block(RIGHT_GOAL)]
    own[:, 1, 14] = 1.0
    other = np.zeros((len(xy), 15))
    other[:, 2:4] = xy
    return own, other


FEATURE_ROWS = tuple(map(_read_only, _feature_rows()))


def _categories() -> np.ndarray:
    """`MOVE_CATEGORIES` index of every move of B, by (B's cell, action, A's
    cell), int8.

    Priority on overlap: approach_agent, avoid_agent, approach_agent_goal,
    approach_own_goal; a move that does not change position is a stand.
    Distances are Manhattan, measured against the other player's pre-move
    cell and the nearest cell of each goal.

    The two goal categories never occur: a move that changes the mover's
    cell changes its distance to the other player's pre-move cell by exactly
    1, so it is approach_agent or avoid_agent before the goals are looked
    at. Opponent features 2, 3, 7 and 8 are therefore always 0, and
    ``multitask = action`` trains 3 of its 5 classes."""
    moves = MOVE_TABLE
    before = _DISTANCES[:, None, :]  # B's cell to A's
    after = _DISTANCES[moves]
    stands = (moves == np.arange(len(moves))[:, None])[:, :, None]
    # A's own goal is the one B attacks, and B's own goal the one A attacks
    closer = [(d[moves] < d[:, None])[:, :, None] for d in _GOAL_DISTANCES[::-1]]
    # the conditions in priority order, each with its MOVE_CATEGORIES index
    return np.select([stands, after < before, after > before, *closer],
                     [np.int8(c) for c in (4, 0, 1, 2, 3)], default=np.int8(4))


CATEGORIES = _read_only(_categories())


def _tie_sets() -> Tuple[np.ndarray, np.ndarray]:
    """B's best moves by (mode, B's cell, A's cell, B has the ball): how
    many there are, and the moves in ascending action order, padded to 5;
    both int8.

    Offensive: carry the ball straight to the scoring goal, otherwise chase
    the ball holder. Defensive: keep away from the other player while
    holding the ball (never stepping into its own goal unless every move
    does), otherwise guard the cell in front of its goal nearest the ball
    holder, and stand once there."""
    n = WIDTH * HEIGHT
    moves = MOVE_TABLE.T
    chase = _DISTANCES[moves]  # action, own cell, other cell
    unusable = WIDTH + HEIGHT  # above any distance
    stand_only = np.full((len(ACTIONS), 1, 1), unusable, dtype=np.int16)
    stand_only[STAND] = 0
    # each set of best moves is a 5-bit code; `ordered` lists each code's moves
    sets = (np.arange(2 ** len(ACTIONS))[:, None] >> np.arange(len(ACTIONS))) & 1 == 1
    ordered = np.argsort(~sets, axis=1, kind="stable").astype(np.int8)
    # actions first, so the best score is a minimum over whole planes
    scores = np.empty((len(ACTIONS), len(MODES), n, n, 2), dtype=np.int16)
    scores[:, 0, :, :, 1] = _GOAL_DISTANCES[1][moves][:, :, None]
    scores[:, 0, :, :, 0] = chase
    usable = ~GOAL_MASK[0][moves]  # B's own goal is the one A attacks
    usable |= ~usable.any(axis=0)
    scores[:, 1, :, :, 1] = np.where(usable[:, :, None], -chase, unusable)
    # B guards the column in front of its goal, level with A within the goal's rows
    guard = (WIDTH - 2) * HEIGHT + np.clip(_ROW, *_GOAL_ROWS)
    at_guard = np.arange(n)[:, None] == guard
    scores[:, 1, :, :, 0] = np.where(at_guard, stand_only, chase[:, :, guard])
    best = scores == np.minimum.reduce(scores, axis=0)
    code = np.zeros(best.shape[1:], dtype=np.uint8)
    for action, plane in enumerate(best):
        code |= plane.view(np.uint8) << action
    return best.sum(axis=0, dtype=np.int8), np.take(ordered, code, axis=0)


TIE_SETS = tuple(map(_read_only, _tie_sets()))


@dataclass(frozen=True)
class SoccerState:
    """One game in the tables' terms: the cell index of each player, the
    ball holder (0 for A, 1 for B) and the steps played."""

    cell_a: int
    cell_b: int
    holder: int
    step: int = 0
    done: bool = False


def sample_mode(rng: np.random.Generator, policy: str = "mixed") -> int:
    """The `MODES` index of the opponent's mode for a new game: uniform for
    ``mixed``, else fixed."""
    if policy == "mixed":
        return int(rng.integers(0, 2))
    if policy in MODES:
        return MODES.index(policy)
    raise ConfigurationError(f"unknown mode policy {policy!r}")


def reset(rng: np.random.Generator, mode_policy: str = "mixed") -> Tuple[SoccerState, int]:
    """Fresh game: A uniform over playable left-half non-goal cells, B over
    the right half, ball holder uniform, opponent mode (a `MODES` index) per
    policy."""
    left, right = START_CELLS
    cell_a = left[int(rng.integers(0, len(left)))]
    cell_b = right[int(rng.integers(0, len(right)))]
    holder = 0 if rng.random() < 0.5 else 1
    return SoccerState(cell_a, cell_b, holder), sample_mode(rng, mode_policy)


def step(state: SoccerState, action_a: int, action_b: int) -> Tuple[SoccerState, float, bool, bool]:
    """Resolve one simultaneous joint move. Returns the next state, the
    reward from A's side, whether the game is over, and whether the move was
    blocked (the ball then changed hands)."""
    if state.done:
        raise UsageError("cannot step a finished episode")
    a, b, holder = state.cell_a, state.cell_b, state.holder
    to_a = MOVE_TABLE.item(a, action_a)
    to_b = MOVE_TABLE.item(b, action_b)
    # blocked: nobody moves, and the pre-move holder loses the ball
    blocked = to_a == to_b or (to_a == b and to_b == a)
    if blocked:
        holder = 1 - holder
    else:
        a, b = to_a, to_b
    count = state.step + 1
    if GOAL_MASK.item(holder, b if holder else a):
        return SoccerState(a, b, holder, count, True), -1.0 if holder else 1.0, True, blocked
    done = count >= HORIZON
    return SoccerState(a, b, holder, count, done), 0.0, done, blocked


def step_many(a: np.ndarray, b: np.ndarray, holder: np.ndarray,
              action_a: np.ndarray, action_b: np.ndarray) -> Tuple[np.ndarray, ...]:
    """`step` of many games at once, on arrays of the `SoccerState` fields:
    returns A's cells, B's cells and the holders after the joint moves,
    whether each move was blocked, and whether the holder scored. The
    horizon is left to the caller."""
    to_a = MOVE_TABLE[a, action_a]
    to_b = MOVE_TABLE[b, action_b]
    # blocked: nobody moves, and the pre-move holder loses the ball
    blocked = (to_a == to_b) | ((to_a == b) & (to_b == a))
    holder = holder ^ blocked
    a = np.where(blocked, a, to_a)
    b = np.where(blocked, b, to_b)
    return a, b, holder, blocked, GOAL_MASK[holder, np.where(holder, b, a)]


def featurize_state(state: SoccerState) -> np.ndarray:
    """A's 15 features: both positions, the axis limits, both goal areas,
    and whether A holds the ball (`FEATURE_ROWS`)."""
    own, other = FEATURE_ROWS
    return own[state.cell_a, 1 - state.holder] + other[state.cell_b]


def classify_move(state: SoccerState, action: int) -> int:
    """The `MOVE_CATEGORIES` index of B's move `action` relative to A, as
    the `CATEGORIES` table has it."""
    return CATEGORIES.item(state.cell_b, action, state.cell_a)


class OpponentTallies:
    """The opponent's moves so far in each of many games that have all seen
    the same number of them, one row per game; training keeps one row.
    `features` gives each game's 16 opponent features: the frequency of each
    move category (0-4), the one-hot most recent category (5-9) and raw
    action (10-14), and the rate of losing the ball to the opponent (15);
    all 0 before the first move. `sums` holds the category counts (columns
    0-4) and the ball losses (column 15) and is 0 elsewhere."""

    CATEGORY_ROWS = _read_only(np.eye(len(MOVE_CATEGORIES), 16))  # a count, by category
    # the one-hot last category and last action, by (category, action)
    LAST_MOVE_ROWS = _read_only(np.eye(len(MOVE_CATEGORIES), 16, 5)[:, None]
                                + np.eye(len(ACTIONS), 16, 10)[None, :])

    def __init__(self, games: int):
        self.sums = np.zeros((games, 16))
        self.last_category = self.last_action = np.zeros(games, dtype=np.intp)
        self.steps = 0

    def observe(self, category: np.ndarray, action: np.ndarray, lost_ball: np.ndarray) -> None:
        self.sums += self.CATEGORY_ROWS[category]
        self.sums[:, 15] += lost_ball
        self.last_category, self.last_action = category, action
        self.steps += 1

    def keep(self, games: np.ndarray) -> None:
        """Drop every row but those `games` selects."""
        self.sums = self.sums[games]
        self.last_category = self.last_category[games]
        self.last_action = self.last_action[games]

    def features(self) -> np.ndarray:
        if not self.steps:
            return np.zeros_like(self.sums)
        return self.sums / self.steps + self.LAST_MOVE_ROWS[self.last_category, self.last_action]


def rule_agent_act(state: SoccerState, mode: int, rng: np.random.Generator) -> int:
    """B's hand-crafted two-mode policy in the mode of `MODES` index `mode`,
    as the `TIE_SETS` table has it; a tie between best moves is broken by
    one draw from `rng`."""
    key = (mode, state.cell_b, state.cell_a, state.holder)
    counts, choices = TIE_SETS
    count = counts.item(key)
    return choices.item(*key, 0 if count == 1 else int(rng.integers(0, count)))


def rule_agent_many(modes: np.ndarray, b: np.ndarray, a: np.ndarray, holder: np.ndarray,
                    rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """`rule_agent_act` of many games at once, on arrays of the mode indices
    and the `SoccerState` fields: game i breaks a tie by one draw from
    ``rngs[i]``, in game order."""
    key = (modes, b, a, holder)
    counts, choices = TIE_SETS
    count = counts[key]
    choices = choices[key]
    ties = np.flatnonzero(count > 1)
    for i, n in zip(ties.tolist(), count[ties].tolist()):
        choices[i, 0] = choices[i, rngs[i].integers(0, n)]
    return choices[:, 0]


def render(state: SoccerState) -> str:
    """Two characters per cell: players as A/B (holder starred), '#' shaded,
    '=' goal cells."""
    marks = np.where(GOAL_MASK.any(axis=0), "= ", ". ")
    marks[_mask(SHADED)] = "# "
    marks[state.cell_b] = "B*" if state.holder else "B "
    marks[state.cell_a] = "A " if state.holder else "A*"
    # cells are numbered column by column: row r is every height-th cell from r
    return "\n".join("".join(marks[r::HEIGHT]) for r in range(HEIGHT))
