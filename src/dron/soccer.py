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
read-only tables, built once at import with vectorised numpy. Cells are
numbered column by column (``col * HEIGHT + row``). A position is one joint
state, an index over the 4140 (A's cell, B's cell, ball holder) with two
distinct playable cells (`STATE_FIELDS`, `STATE_INDEX`; holder 0 is A).
Over it: `NEXT_STATE`, `BLOCKED` and `OUTCOME` by (state, A's move, B's
move), `FEATURES` (A's view), `TIE_COUNTS` and `TIE_MOVES` (B's best moves,
by mode and state) and `MOVE_CATEGORY` (by state and B's move). Each rule
is written once, in the builder of its table. Modes and move categories
are `MODES` and `MOVE_CATEGORIES` indices.

One game or many, by the same functions: `step` and `rule_agent` take a
joint state as an int (one game, as training plays) or an array (the games
`harness.evaluate_soccer` plays in lockstep), and leave the horizon to the
caller. B breaks a tie among n best moves with ``integers(0, n)`` on its
game's stream, drawing nothing when n is 1. Many games draw in one
vectorised step (`TieDraws`): each draws a block of raw 32-bit words, and a
tie maps its next word w to ``(w * n) >> 32``, skipping a zero word when n
is odd: Lemire's rule (Lemire, ACM TOMACS 2019) as `Generator.integers(0,
n)` applies it to the same words. So the draws are one-game play's while
nothing else reads the stream after `reset` (`TestTieDraws` in
`tests/test_soccer.py`). Both tally B's moves with `OpponentTallies.observe`,
the one place that reads a move's category and writes the lost-ball rule.
A `dqn` game reads neither `OpponentTallies` nor `MOVE_CATEGORY`.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError

Cell = Tuple[int, int]  # (col, row)

ACTIONS = ("N", "S", "E", "W", "stand")
ACTION_DELTAS = ((0, -1), (0, 1), (1, 0), (-1, 0), (0, 0))  # row 0 is the top
STAND = ACTIONS.index("stand")

MOVE_CATEGORIES = ("approach_agent", "avoid_agent", "approach_agent_goal",
                   "approach_own_goal", "stand")

HORIZON = 100  # scoreless steps before a game is a 0-0 tie

MODES = ("offensive", "defensive")
MODE_POLICIES = ("mixed", "offensive", "defensive")
OPPONENT_DIM = 2 * len(MOVE_CATEGORIES) + len(ACTIONS) + 1  # `OpponentTallies` width, 16


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


MOVE_TABLE = _read_only(_move_table().astype(np.int16))
# whether a cell is on the goal each player attacks (players A, B x cells)
GOAL_MASK = _read_only(np.stack([_mask(RIGHT_GOAL), _mask(LEFT_GOAL)]))


# Manhattan distance between every two cells (cells x cells), int16
_DISTANCES = _read_only((np.abs(_COL[:, None] - _COL)
                         + np.abs(_ROW[:, None] - _ROW)).astype(np.int16))
# distance from every cell to the nearest cell of the goal each player
# attacks (players x cells)
_GOAL_DISTANCES = _read_only(np.stack([_DISTANCES[:, goal].min(axis=1) for goal in GOAL_MASK]))


def _start_cells() -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The cells `reset` may place A on (playable non-goal cells of the left
    half) and B on (the right half), in index order."""
    half = WIDTH // 2
    free = ~(_mask(SHADED) | GOAL_MASK.any(axis=0))
    return tuple(tuple(np.flatnonzero(free & side).tolist())
                 for side in (_COL < half, _COL >= WIDTH - half))


START_CELLS = _start_cells()


def _states() -> Tuple[np.ndarray, np.ndarray]:
    """The (A's cell, B's cell, holder) of every joint state (3 x states,
    int8), and the joint state of every (A's cell, B's cell, holder), -1 if
    there is none (int16)."""
    playable = np.flatnonzero(~_mask(SHADED))
    a, b = np.meshgrid(playable, playable, indexing="ij")
    a, b = a[a != b], b[a != b]
    fields = np.stack([a.repeat(2), b.repeat(2), np.tile([0, 1], len(a))]).astype(np.int8)
    lookup = np.full((WIDTH * HEIGHT, WIDTH * HEIGHT, 2), -1, dtype=np.int16)
    lookup[tuple(fields)] = np.arange(fields.shape[1])
    return fields, lookup


STATE_FIELDS, STATE_INDEX = map(_read_only, _states())


def _joint_moves() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every joint move, by (state, A's action, B's action): the next state
    (int16), whether it was blocked (nobody moves, and the ball changes
    hands), and the outcome (int8: 1 if A scored, -1 if B scored, else 0).
    The holder scores on the goal it attacks, after a block too."""
    a, b = STATE_FIELDS[:2, ::2]  # each pair of cells once
    # by (A's action, B's action, pair), so each operation runs along the pairs
    to_a, to_b = MOVE_TABLE[a].T[:, None], MOVE_TABLE[b].T
    blocked = (to_a == to_b) | ((to_a == b) & (to_b == a))
    a, b = np.where(blocked, a, to_a), np.where(blocked, b, to_b)
    holder = np.arange(2, dtype=np.int8)[:, None, None, None] ^ blocked  # by the holder before
    goals = GOAL_MASK * np.array([[1], [-1]], dtype=np.int8)  # each holder's score there
    outcome = np.where(holder, goals[1][b], goals[0][a])
    # a state's index is its pair's, then its holder's
    order, shape = (3, 0, 1, 2), (-1, len(ACTIONS), len(ACTIONS))
    return ((STATE_INDEX[a, b, 0] + holder).transpose(order).reshape(shape),
            np.repeat(blocked.transpose(2, 0, 1), 2, axis=0),
            outcome.transpose(order).reshape(shape))


NEXT_STATE, BLOCKED, OUTCOME = map(_read_only, _joint_moves())


def _features() -> np.ndarray:
    """A's 15 features in every state (states x 15): A's position, B's
    position, both axis limits, A's own and A's opposing goal block (its
    column, top and bottom row), and whether A holds the ball. Positions are
    scaled to [0, 1] by the grid extents."""
    sx, sy = 1.0 / (WIDTH - 1), 1.0 / (HEIGHT - 1)
    xy = np.stack([_COL * sx, _ROW * sy], axis=1)
    a, b, holder = STATE_FIELDS
    features = np.empty((len(a), 15))
    features[:, 0:2], features[:, 2:4] = xy[a], xy[b]
    features[:, 4:8] = [0.0, (WIDTH - 1) * sx, 0.0, (HEIGHT - 1) * sy]
    for at, goal in ((8, LEFT_GOAL), (11, RIGHT_GOAL)):  # a goal's cells run down one column
        features[:, at:at + 3] = [*xy[index(goal[0])], xy[index(goal[-1]), 1]]
    features[:, 14] = holder == 0
    return features


FEATURES = _read_only(_features())


def _categories() -> np.ndarray:
    """`MOVE_CATEGORIES` index of every move of B, by (state, action), int8.
    Priority on overlap: approach_agent, avoid_agent, approach_agent_goal,
    approach_own_goal; a move that does not change position is a stand.
    Distances are Manhattan, to A's pre-move cell and the nearest goal cell.

    The two goal categories never occur: a move that changes B's cell
    changes its distance to A's pre-move cell by exactly 1. Opponent
    features 2, 3, 7 and 8 are therefore always 0, and ``multitask =
    action`` trains 3 of its 5 classes."""
    a, b = STATE_FIELDS[:2, ::2, None]  # a move's category does not read the holder
    moves = MOVE_TABLE[b, np.arange(len(ACTIONS))]
    before, after = _DISTANCES[b, a], _DISTANCES[moves, a]
    closer = [d[moves] < d[b] for d in _GOAL_DISTANCES[::-1]]  # A's own goal, then B's own
    # the conditions in priority order, each with its MOVE_CATEGORIES index
    return np.repeat(np.select([moves == b, after < before, after > before, *closer],
                               [np.int8(c) for c in (4, 0, 1, 2, 3)], default=np.int8(4)),
                     2, axis=0)


MOVE_CATEGORY = _read_only(_categories())


def _tie_sets() -> Tuple[np.ndarray, np.ndarray]:
    """B's best moves by (mode, state): how many there are, and the moves in
    ascending action order, padded to 5; both int8.

    Offensive: carry the ball straight to the scoring goal, otherwise chase
    the ball holder. Defensive: keep away from the other player while
    holding the ball (never stepping into its own goal unless every move
    does), otherwise guard the cell in front of its goal nearest the ball
    holder, and stand once there."""
    a, b = STATE_FIELDS[:2, ::2]  # each pair of cells once; the holder is a state's last axis
    moves = MOVE_TABLE[b].T  # B's cell after each action (actions x pairs)
    chase = _DISTANCES[moves, a]
    unusable = WIDTH + HEIGHT  # above any distance
    stand_only = np.where(np.arange(len(ACTIONS)) == STAND, 0, unusable)[:, None]
    usable = ~GOAL_MASK[0][moves]  # B's own goal is the one A attacks
    usable |= ~usable.any(axis=0)
    # B guards the column in front of its goal, level with A within the goal's rows
    guard = (WIDTH - 2) * HEIGHT + np.clip(_ROW[a], *_GOAL_ROWS)
    # by (action, mode, pair, B has the ball); the best moves score the least
    scores = np.empty((len(ACTIONS), len(MODES), len(a), 2), dtype=np.int16)
    scores[:, 0, :, 0] = chase
    scores[:, 0, :, 1] = _GOAL_DISTANCES[1][moves]
    scores[:, 1, :, 0] = np.where(b == guard, stand_only, _DISTANCES[moves, guard])
    scores[:, 1, :, 1] = np.where(usable, -chase, unusable)
    scores = scores.reshape(len(ACTIONS), len(MODES), -1)
    best = scores == scores.min(axis=0)
    # each set of best moves is a 5-bit code; `ordered` lists each code's moves
    sets = (np.arange(2 ** len(ACTIONS))[:, None] >> np.arange(len(ACTIONS))) & 1 == 1
    ordered = np.argsort(~sets, axis=1, kind="stable").astype(np.int8)
    code = np.packbits(best, axis=0, bitorder="little")[0]
    return best.sum(axis=0, dtype=np.int8), ordered[code]


TIE_COUNTS, TIE_MOVES = map(_read_only, _tie_sets())


def sample_mode(rng: np.random.Generator, policy: str = "mixed") -> int:
    """The `MODES` index of a new game's opponent mode: uniform for ``mixed``, else fixed."""
    if policy == "mixed":
        return int(rng.integers(0, 2))
    if policy in MODES:
        return MODES.index(policy)
    raise ConfigurationError(f"unknown mode policy {policy!r}")


def reset(rng: np.random.Generator, mode_policy: str = "mixed") -> Tuple[int, int]:
    """A new game: the joint state (A and B uniform over their `START_CELLS`,
    the ball holder uniform) and the `MODES` index of B's mode."""
    left, right = START_CELLS
    cell_a = left[int(rng.integers(0, len(left)))]
    cell_b = right[int(rng.integers(0, len(right)))]
    holder = 0 if rng.random() < 0.5 else 1
    return STATE_INDEX.item(cell_a, cell_b, holder), sample_mode(rng, mode_policy)


def step(joint, action_a, action_b) -> Tuple:
    """One simultaneous move of one game (ints) or many (arrays): the next
    joint state, `BLOCKED` and `OUTCOME`. numpy ravels the key, since ``joint
    * 25`` overflows an int16 joint state."""
    key = np.ravel_multi_index((joint, action_a, action_b), NEXT_STATE.shape)
    return NEXT_STATE.take(key), BLOCKED.take(key), OUTCOME.take(key)


class OpponentTallies:
    """The opponent's moves so far in each of many games that have all seen
    the same number of them, one row per game; training keeps one row.
    `features` gives each game's 16 opponent features: the frequency of each
    move category (0-4), the one-hot most recent category (5-9) and raw
    action (10-14), and the rate of losing the ball to the opponent (15);
    all 0 before the first move. `sums` holds the category counts (columns
    0-4) and the ball losses (column 15) and is 0 elsewhere; `last_category`
    is the `MOVE_CATEGORIES` index of each game's last move."""

    CATEGORY_ROWS = _read_only(np.eye(len(MOVE_CATEGORIES), OPPONENT_DIM))  # a count, by category
    # the one-hot last category and last action, by (category, action)
    LAST_MOVE_ROWS = _read_only(np.eye(len(MOVE_CATEGORIES), OPPONENT_DIM, 5)[:, None]
                                + np.eye(len(ACTIONS), OPPONENT_DIM, 10)[None, :])

    def __init__(self, games: int):
        self.sums = np.zeros((games, OPPONENT_DIM))
        self.last_category = self.last_action = np.zeros(games, dtype=np.intp)
        self.steps = 0

    def observe(self, before: np.ndarray, action: np.ndarray, after: np.ndarray,
                blocked: np.ndarray) -> None:
        """Tally B's move `action` of each game from joint state `before` to
        `after`, `blocked` its `BLOCKED` entry (ints for one game, arrays for
        many). Its category is `MOVE_CATEGORY`'s; the move loses the ball to
        the opponent when it was blocked and B holds the ball after it."""
        category = MOVE_CATEGORY[before, action]
        self.sums += self.CATEGORY_ROWS[category]
        self.sums[:, 15] += blocked & (STATE_FIELDS[2, after] == 1)
        self.last_category, self.last_action = category, action
        self.steps += 1

    def keep(self, games: np.ndarray) -> None:
        """Drop every row but those `games` selects."""
        self.sums, self.last_category, self.last_action = (
            self.sums[games], self.last_category[games], self.last_action[games])

    def features(self) -> np.ndarray:
        if not self.steps:
            return np.zeros_like(self.sums)
        return self.sums / self.steps + self.LAST_MOVE_ROWS[self.last_category, self.last_action]


class TieDraws:
    """The tie-breaks of many games, as successive ``rng.integers(0, n)`` on
    each game's stream draw them (the module docstring says how): a game
    takes its stream's words `BLOCK` at a time, and `at` flat-indexes its next."""

    BLOCK = HORIZON  # a game breaks at most one tie a step

    def __init__(self, rngs: Sequence[np.random.Generator]):
        self.rngs = list(rngs)
        self.words = np.empty((len(self.rngs), self.BLOCK), dtype=np.int64)
        self.at = np.arange(1, len(self.rngs) + 1) * self.BLOCK  # no game has words yet
        self.zeros = False  # whether a block holds a zero word, which numpy rejects for an odd n
        self._refill()

    def _refill(self) -> None:
        """A new block for each game that has used all of its words."""
        used = self.at - np.arange(len(self.rngs)) * self.BLOCK
        for game in (used == self.BLOCK).nonzero()[0].tolist():
            self.words[game] = self.rngs[game].integers(0, 2 ** 32, self.BLOCK, np.uint32)
            self.zeros |= not self.words[game].all()
            self.at[game], used[game] = game * self.BLOCK, 0
        self.left = self.BLOCK - int(used.max())  # draws that every game has words for

    def draw(self, n: np.ndarray) -> np.ndarray:
        """One ``integers(0, n[i])`` from the stream of each game i with
        n[i] > 1, in game order; 0, drawing nothing, where n[i] is 1."""
        word = self.words.take(self.at)
        self.at += n > 1
        self.left -= 1
        if not self.left:
            self._refill()
        out = (word * n) >> 32
        if self.zeros:
            skip = (word == 0) & (n % 2 == 1) & (n > 1)
            if skip.any():
                out[skip] = self.draw(np.where(skip, n, 1))[skip]
        return out

    def keep(self, games: np.ndarray) -> None:
        """Drop every game but those `games` selects."""
        used = self.at - np.arange(len(self.rngs)) * self.BLOCK
        self.rngs = [rng for rng, kept in zip(self.rngs, games.tolist()) if kept]
        self.words = self.words[games]
        self.at = np.arange(len(self.rngs)) * self.BLOCK + used[games]


def rule_agent(mode, joint, draw: Callable):
    """B's move (`TIE_MOVES`) in the mode of `MODES` index `mode`, for one
    game (ints) or many (arrays). A tie among n best moves takes ``draw(n)``:
    the game's ``rng.integers``, or `TieDraws.draw` for many."""
    return TIE_MOVES[mode, joint, draw(TIE_COUNTS[mode, joint])]


def render(joint: int) -> str:
    """Two characters per cell: A and B (the holder starred), '#' shaded, '=' goal."""
    cell_a, cell_b, holder = STATE_FIELDS[:, joint].tolist()
    marks = np.where(GOAL_MASK.any(axis=0), "= ", ". ")
    marks[_mask(SHADED)] = "# "
    marks[cell_b] = "B*" if holder else "B "
    marks[cell_a] = "A " if holder else "A*"
    # cells are numbered column by column: row r is every height-th cell from r
    return "\n".join("".join(marks[r::HEIGHT]) for r in range(HEIGHT))
