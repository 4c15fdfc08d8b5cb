"""Straight-line reference implementation of the soccer movement rules.

Written independently of dron.soccer (no shared helpers, hardcoded default
geometry) so the two can be checked against each other. Only the default
9x6 field is supported.
"""

WIDTH = 9
HEIGHT = 6
LEFT_GOAL = {(0, 2), (0, 3)}
RIGHT_GOAL = {(8, 2), (8, 3)}
SHADED = {(0, 0), (0, 1), (0, 4), (0, 5), (8, 0), (8, 1), (8, 4), (8, 5)}
HORIZON = 100

# N, S, E, W, stand as (dcol, drow); row 0 at the top
DELTAS = [(0, -1), (0, 1), (1, 0), (-1, 0), (0, 0)]


def reference_move(pos, action):
    """Where one player ends up alone: off the grid or onto a shaded cell is a stand."""
    t = (pos[0] + DELTAS[action][0], pos[1] + DELTAS[action][1])
    if t[0] < 0 or t[0] >= WIDTH or t[1] < 0 or t[1] >= HEIGHT or t in SHADED:
        return pos
    return t


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
