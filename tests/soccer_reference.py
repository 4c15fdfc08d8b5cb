"""Straight-line reference implementation of the soccer rules.

The rules are written independently of dron.soccer (no shared helpers,
hardcoded 9x6 geometry) so the two can be checked against each other.
"""

import numpy as np

WIDTH = 9
HEIGHT = 6
LEFT_GOAL = {(0, 2), (0, 3)}  # the goal B attacks
RIGHT_GOAL = {(8, 2), (8, 3)}  # the goal A attacks
SHADED = {(0, 0), (0, 1), (0, 4), (0, 5), (8, 0), (8, 1), (8, 4), (8, 5)}
HORIZON = 100

# N, S, E, W, stand as (dcol, drow); row 0 at the top
DELTAS = [(0, -1), (0, 1), (1, 0), (-1, 0), (0, 0)]


def playable(cell):
    """On the grid and not shaded."""
    col, row = cell
    return 0 <= col < WIDTH and 0 <= row < HEIGHT and cell not in SHADED


def reference_move(pos, action):
    """Where one player ends up alone: off the grid or onto a shaded cell is a stand."""
    t = (pos[0] + DELTAS[action][0], pos[1] + DELTAS[action][1])
    return t if playable(t) else pos


def reference_step(pos_a, pos_b, ball, step_count, action_a, action_b):
    """Returns (pos_a', pos_b', ball', step', reward_a, done)."""
    ta = reference_move(pos_a, action_a)
    tb = reference_move(pos_b, action_b)

    # same destination (includes moving onto a standing player) or a swap:
    # neither moves and the pre-move holder loses the ball
    if ta == tb or (ta == pos_b and tb == pos_a):
        ta = pos_a
        tb = pos_b
        ball = "B" if ball == "A" else "A"

    step_count = step_count + 1

    # scoring: holder standing on the goal it attacks
    if ball == "A" and ta in RIGHT_GOAL:
        return ta, tb, ball, step_count, 1.0, True
    if ball == "B" and tb in LEFT_GOAL:
        return ta, tb, ball, step_count, -1.0, True
    if step_count >= HORIZON:
        return ta, tb, ball, step_count, 0.0, True
    return ta, tb, ball, step_count, 0.0, False


# -- the scalar scoring rules ---------------------------------------------------
#
# The rule agent, the move categories and the state features as they were
# computed per call before the rules became tables; the table tests check
# every table entry against them.

GOAL_OF = {"A": RIGHT_GOAL, "B": LEFT_GOAL}  # the goal each player attacks
OWN_GOAL_OF = {"A": LEFT_GOAL, "B": RIGHT_GOAL}


def manhattan(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def goal_distance(cell, goal):
    return min(manhattan(cell, g) for g in goal)


def cells():
    """Every cell of the grid, column by column."""
    return [(c, r) for c in range(WIDTH) for r in range(HEIGHT)]


def move_targets(cell):
    """The cell each of the 5 actions leads to from `cell`."""
    return [reference_move(cell, action) for action in range(len(DELTAS))]


def _argmin_actions(scores):
    best = min(scores)
    return [i for i, s in enumerate(scores) if s == best]


def rule_choices(mode, player, pos, other_pos, has_ball):
    """The moves the rule agent picks among, in ascending action order."""
    targets = move_targets(pos)
    if mode == "offensive":
        if has_ball:
            goal = GOAL_OF[player]
            return _argmin_actions([float(goal_distance(t, goal)) for t in targets])
        return _argmin_actions([float(manhattan(t, other_pos)) for t in targets])
    own_goal = OWN_GOAL_OF[player]
    if has_ball:
        usable = [i for i, t in enumerate(targets) if t not in own_goal]
        if not usable:
            usable = list(range(len(DELTAS)))
        scores = [-float(manhattan(targets[i], other_pos)) for i in usable]
        return [usable[i] for i in _argmin_actions(scores)]
    guard_col = 1 if own_goal is LEFT_GOAL else WIDTH - 2
    rows = sorted(g[1] for g in own_goal)
    guard = (guard_col, min(max(other_pos[1], rows[0]), rows[-1]))
    if pos == guard:
        return [4]  # stand
    return _argmin_actions([float(manhattan(t, guard)) for t in targets])


CATEGORIES = ("approach_agent", "avoid_agent", "approach_agent_goal", "approach_own_goal",
              "stand")


def classify(mover, pos, action, agent_pos):
    """The category of `mover`'s move from `pos`, the other player at
    `agent_pos`."""
    agent = "A" if mover == "B" else "B"
    target = reference_move(pos, action)
    if target == pos:
        return "stand"
    if manhattan(target, agent_pos) < manhattan(pos, agent_pos):
        return "approach_agent"
    if manhattan(target, agent_pos) > manhattan(pos, agent_pos):
        return "avoid_agent"
    agent_goal = OWN_GOAL_OF[agent]
    if goal_distance(target, agent_goal) < goal_distance(pos, agent_goal):
        return "approach_agent_goal"
    own_goal = OWN_GOAL_OF[mover]
    if goal_distance(target, own_goal) < goal_distance(pos, own_goal):
        return "approach_own_goal"
    return "stand"


def features(me, other, has_ball, own_goal, opposing_goal):
    """The 15 state features of the player at `me`, computed per call."""
    sx = 1.0 / (WIDTH - 1)
    sy = 1.0 / (HEIGHT - 1)

    def goal_block(goal):
        (col,) = {g[0] for g in goal}
        rows = sorted(g[1] for g in goal)
        return [col * sx, rows[0] * sy, rows[-1] * sy]

    return np.array([
        me[0] * sx, me[1] * sy, other[0] * sx, other[1] * sy,
        0.0, (WIDTH - 1) * sx, 0.0, (HEIGHT - 1) * sy,
        *goal_block(own_goal), *goal_block(opposing_goal),
        1.0 if has_ball else 0.0,
    ])


def opponent_features(moves):
    """The 16 opponent features after `moves`, the (category name, action,
    lost ball) of each of B's moves so far in one game: the frequency of
    each category, the one-hot last category and last action, and the rate
    of losing the ball to B."""
    phi = np.zeros(16)
    if not moves:
        return phi
    for i, name in enumerate(CATEGORIES):
        phi[i] = sum(1 for category, _, _ in moves if category == name) / len(moves)
    last_category, last_action, _ = moves[-1]
    phi[5 + CATEGORIES.index(last_category)] = 1.0
    phi[10 + last_action] = 1.0
    phi[15] = sum(1 for _, _, lost in moves if lost) / len(moves)
    return phi
