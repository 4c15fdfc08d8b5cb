import math

import numpy as np
import pytest

from dron import soccer
from dron.errors import UsageError
from dron.soccer import (
    ACTIONS,
    DEFAULT_CONFIG,
    OpponentStats,
    SoccerConfig,
    SoccerState,
    classify_move,
    featurize_state,
    opponent_features,
    reset,
    rule_agent_act,
    sample_mode,
    step,
)
from soccer_reference import reference_move, reference_step

A_N, A_S, A_E, A_W, A_STAND = range(5)


def random_legal_state(rng, allow_near_goal=True):
    cells = [
        (c, r)
        for c in range(DEFAULT_CONFIG.width)
        for r in range(DEFAULT_CONFIG.height)
        if DEFAULT_CONFIG.playable((c, r))
    ]
    while True:
        pa = cells[int(rng.integers(0, len(cells)))]
        pb = cells[int(rng.integers(0, len(cells)))]
        if pa == pb:
            continue
        ball = "A" if rng.random() < 0.5 else "B"
        state = SoccerState(pos_a=pa, pos_b=pb, ball=ball,
                            step=int(rng.integers(0, 99)))
        # skip states that are already terminal positions
        holder_pos = state.position(ball)
        if holder_pos in DEFAULT_CONFIG.goal_for(ball):
            continue
        return state


class TestGeometry:
    def test_goals_and_shaded_disjoint(self):
        goals = set(DEFAULT_CONFIG.left_goal) | set(DEFAULT_CONFIG.right_goal)
        assert not goals & DEFAULT_CONFIG.shaded
        assert DEFAULT_CONFIG.left_goal == ((0, 2), (0, 3))
        assert DEFAULT_CONFIG.right_goal == ((8, 2), (8, 3))
        assert len(DEFAULT_CONFIG.shaded) == 8


class TestReset:
    def test_ball_owner_balanced(self):
        rng = np.random.default_rng(0)
        n = 10_000
        to_a = sum(reset(DEFAULT_CONFIG, rng)[0].ball == "A" for _ in range(n))
        sigma = math.sqrt(n * 0.25)
        assert abs(to_a - n / 2) <= 3 * sigma

    def test_never_on_shaded_or_goal(self):
        rng = np.random.default_rng(1)
        goals = set(DEFAULT_CONFIG.left_goal) | set(DEFAULT_CONFIG.right_goal)
        for _ in range(2000):
            state, _ = reset(DEFAULT_CONFIG, rng)
            for pos in (state.pos_a, state.pos_b):
                assert pos not in DEFAULT_CONFIG.shaded
                assert pos not in goals
            assert state.pos_a[0] <= 3 and state.pos_b[0] >= 5
            assert state.pos_a != state.pos_b

    def test_deterministic(self):
        a = reset(DEFAULT_CONFIG, np.random.default_rng(42))
        b = reset(DEFAULT_CONFIG, np.random.default_rng(42))
        assert a == b


class TestStep:
    def test_both_stand(self):
        state = SoccerState((2, 2), (6, 3), "A", step=5)
        nxt, reward, done, _ = step(state, A_STAND, A_STAND)
        assert (nxt.pos_a, nxt.pos_b) == ((2, 2), (6, 3))
        assert nxt.step == 6 and reward == 0.0 and not done

    def test_collision_transfers_ball(self):
        state = SoccerState((3, 2), (5, 2), "A")
        nxt, _, done, events = step(state, A_E, A_W)  # both into (4, 2)
        assert (nxt.pos_a, nxt.pos_b) == ((3, 2), (5, 2))
        assert nxt.ball == "B" and events.collision and not done

    def test_swap_blocked(self):
        state = SoccerState((3, 2), (4, 2), "B")
        nxt, _, _, events = step(state, A_E, A_W)
        assert (nxt.pos_a, nxt.pos_b) == ((3, 2), (4, 2))
        assert nxt.ball == "A" and events.collision

    def test_move_onto_standing_player(self):
        state = SoccerState((3, 2), (4, 2), "B")
        nxt, _, _, events = step(state, A_E, A_STAND)
        assert (nxt.pos_a, nxt.pos_b) == ((3, 2), (4, 2))
        assert nxt.ball == "A" and events.collision

    def test_goal_scores(self):
        state = SoccerState((7, 2), (1, 5), "A")
        nxt, reward, done, events = step(state, A_E, A_STAND)
        assert reward == 1.0 and done and events.goal_by == "A"
        assert nxt.pos_a == (8, 2)

    def test_timeout_tie(self):
        state = SoccerState((2, 2), (6, 3), "A", step=99)
        _, reward, done, events = step(state, A_STAND, A_STAND)
        assert reward == 0.0 and done and events.timeout

    def test_invalid_move_becomes_stand(self):
        state = SoccerState((1, 0), (6, 3), "A")
        nxt, _, _, _ = step(state, A_N, A_STAND)  # off the top edge
        assert nxt.pos_a == (1, 0)

    def test_step_after_done_raises(self):
        state = SoccerState((2, 2), (6, 3), "A", step=5, done=True)
        with pytest.raises(UsageError):
            step(state, A_STAND, A_STAND)

    def test_matches_reference_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            state = random_legal_state(rng)
            for aa in range(5):
                for ab in range(5):
                    nxt, reward, done, _ = step(state, aa, ab)
                    ra, rb, ball, cnt, ref_reward, ref_done = reference_step(
                        state.pos_a, state.pos_b, state.ball, state.step, aa, ab
                    )
                    assert (nxt.pos_a, nxt.pos_b, nxt.ball, nxt.step) == (ra, rb, ball, cnt)
                    assert reward == ref_reward and done == ref_done

    def test_invariants_over_random_rollouts(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            state, _ = reset(DEFAULT_CONFIG, rng)
            steps = 0
            while True:
                nxt, reward, done, _ = step(state, int(rng.integers(0, 5)),
                                            int(rng.integers(0, 5)))
                steps += 1
                assert nxt.pos_a != nxt.pos_b
                assert nxt.pos_a not in DEFAULT_CONFIG.shaded
                assert nxt.pos_b not in DEFAULT_CONFIG.shaded
                assert nxt.ball in ("A", "B")
                if done:
                    assert reward in (-1.0, 0.0, 1.0)
                    assert steps <= 100
                    break
                assert reward == 0.0
                state = nxt


class TestMoveTable:
    def test_default_field_matches_reference(self):
        table = DEFAULT_CONFIG.move_targets
        cells = [(c, r) for c in range(DEFAULT_CONFIG.width) for r in range(DEFAULT_CONFIG.height)]
        assert sorted(table) == sorted(cells)
        for cell in cells:
            assert table[cell] == tuple(reference_move(cell, a) for a in range(len(ACTIONS)))

    @pytest.mark.parametrize("width,height", [(5, 4), (11, 8)])
    def test_other_fields_match_delta_and_playable(self, width, height):
        config = SoccerConfig(width=width, height=height)
        for col in range(width):
            for row in range(height):
                for action, (dc, dr) in enumerate(soccer.ACTION_DELTAS):
                    target = (col + dc, row + dr)
                    want = target if config.playable(target) else (col, row)
                    assert config.move_targets[col, row][action] == want

    def test_table_is_cached(self):
        config = SoccerConfig(width=7, height=4)
        assert config.move_targets is config.move_targets


class TestFeaturize:
    def test_length_and_ball_flag(self):
        state = SoccerState((2, 2), (6, 3), "A")
        phi = featurize_state(state, perspective="A")
        assert phi.shape == (15,)
        assert phi[14] == 1.0
        assert featurize_state(state, perspective="B")[14] == 0.0

    def test_golden_vector(self):
        # A at (2,3), B at (6,1), A holds the ball, A's perspective
        state = SoccerState((2, 3), (6, 1), "A")
        phi = featurize_state(state, perspective="A")
        expected = np.array([
            2 / 8, 3 / 5,          # self
            6 / 8, 1 / 5,          # opponent
            0.0, 1.0, 0.0, 1.0,    # axis limits
            0.0, 2 / 5, 3 / 5,     # own goal (left)
            1.0, 2 / 5, 3 / 5,     # opposing goal (right)
            1.0,                   # ball flag
        ])
        assert np.allclose(phi, expected)

    def test_perspective_swaps_positions(self):
        state = SoccerState((2, 3), (6, 1), "B")
        phi = featurize_state(state, perspective="B")
        assert phi[0] == 6 / 8 and phi[1] == 1 / 5
        assert phi[8] == 1.0  # B defends the right goal


    def test_cached_frame_equals_per_call_expressions(self):
        # the constant features were computed on every call; they must keep
        # their bytes now that they are computed once per perspective
        def per_call(state, config, perspective):
            sx = 1.0 / (config.width - 1)
            sy = 1.0 / (config.height - 1)
            me = state.position(perspective)
            other = state.position("B" if perspective == "A" else "A")

            def goal_block(goal):
                rows = sorted(g[1] for g in goal)
                return [goal[0][0] * sx, rows[0] * sy, rows[-1] * sy]

            return np.array([
                me[0] * sx, me[1] * sy, other[0] * sx, other[1] * sy,
                0.0, (config.width - 1) * sx, 0.0, (config.height - 1) * sy,
                *goal_block(config.own_goal_of(perspective)),
                *goal_block(config.goal_for(perspective)),
                1.0 if state.ball == perspective else 0.0,
            ])

        configs = (DEFAULT_CONFIG, SoccerConfig(width=7, height=5), SoccerConfig(width=12, height=8))
        for config in configs:
            cells = [(c, r) for c in range(config.width) for r in range(config.height)
                     if config.playable((c, r))]
            for a, b in zip(cells, cells[::-1]):
                for ball in ("A", "B"):
                    state = SoccerState(a, b, ball)
                    for perspective in ("A", "B"):
                        got = featurize_state(state, config, perspective)
                        assert got.tobytes() == per_call(state, config, perspective).tobytes()

    def test_goals_are_cached(self):
        config = SoccerConfig()
        assert config.left_goal is config.left_goal
        assert config.right_goal is config.right_goal


class TestClassifyMove:
    def test_stand(self):
        state = SoccerState((2, 2), (6, 3), "A")
        assert classify_move(state, A_STAND, mover="B") == "stand"

    def test_invalid_move_is_stand(self):
        state = SoccerState((2, 2), (6, 0), "A")
        assert classify_move(state, A_N, mover="B") == "stand"

    def test_approach_agent(self):
        state = SoccerState((2, 2), (5, 2), "A")
        assert classify_move(state, A_W, mover="B") == "approach_agent"

    def test_priority_avoid_wins_over_goal(self):
        # golden case: B at (4,1), A at (2,1); moving W decreases distance to
        # A's goal (left) but increases... construct the reverse: B moves E,
        # away from A and toward B's own goal side; distance to A increases
        # so avoid_agent wins by priority over any goal category
        state = SoccerState((2, 1), (4, 1), "A")
        assert classify_move(state, A_E, mover="B") == "avoid_agent"

    def test_total_over_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            state = random_legal_state(rng)
            for action in range(5):
                for mover in ("A", "B"):
                    cat = classify_move(state, action, mover=mover)
                    assert cat in soccer.MOVE_CATEGORIES


class TestOpponentFeatures:
    def test_fresh_episode_all_zero(self):
        assert np.all(opponent_features(OpponentStats()) == 0.0)
        assert opponent_features(OpponentStats()).shape == (16,)

    def test_single_observation(self):
        stats = OpponentStats()
        stats.observe("approach_agent", A_E, lost_ball=False)
        phi = opponent_features(stats)
        assert np.allclose(phi[0:5], [1, 0, 0, 0, 0])
        assert np.allclose(phi[5:10], [1, 0, 0, 0, 0])
        assert phi[10 + A_E] == 1.0
        assert phi[15] == 0.0

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(5)
        stats = OpponentStats()
        state, _ = reset(DEFAULT_CONFIG, rng)
        for _ in range(60):
            action = int(rng.integers(0, 5))
            cat = classify_move(state, action, mover="B")
            stats.observe(cat, action, lost_ball=bool(rng.random() < 0.1))
            nxt, _, done, _ = step(state, int(rng.integers(0, 5)), action)
            state = nxt if not done else reset(DEFAULT_CONFIG, rng)[0]
            phi = opponent_features(stats)
            assert abs(phi[0:5].sum() - 1.0) <= 1e-12
            assert 0.0 <= phi[15] <= 1.0


class TestRuleAgent:
    def test_unique_goalward_move(self):
        # offensive with the ball at (6,2): E is the unique distance-
        # minimizing move toward the right goal
        state = SoccerState((6, 2), (1, 5), "A")
        action = rule_agent_act(state, "offensive", np.random.default_rng(0), player="A")
        assert action == A_E

    def test_defensive_guards_goal(self):
        # defensive B without the ball heads for the guard cell (7, row)
        state = SoccerState((3, 2), (5, 5), "A")
        rng = np.random.default_rng(1)
        action = rule_agent_act(state, "defensive", rng, player="B")
        target = DEFAULT_CONFIG.move_targets[5, 5][action]
        assert soccer.manhattan(target, (7, 2)) < soccer.manhattan((5, 5), (7, 2))

    def test_defensive_never_enters_own_goal_with_ball(self):
        rng = np.random.default_rng(2)
        state = SoccerState((6, 2), (7, 2), "B")
        for _ in range(50):
            action = rule_agent_act(state, "defensive", rng, player="B")
            target = DEFAULT_CONFIG.move_targets[7, 2][action]
            assert target not in DEFAULT_CONFIG.right_goal

    def test_offensive_beats_random_smoke(self):
        # small-sample version of the acceptance run
        rng = np.random.default_rng(3)
        wins = lengths = 0
        games = 300
        for _ in range(games):
            state, _ = reset(DEFAULT_CONFIG, rng)
            while True:
                a_b = rule_agent_act(state, "offensive", rng, player="B")
                a_a = int(rng.integers(0, 5))
                state, reward, done, _ = step(state, a_a, a_b)
                if done:
                    wins += reward == -1.0
                    lengths += state.step
                    break
        assert wins / games >= 0.9
        assert lengths / games <= 30

    def test_defensive_ties_random_smoke(self):
        rng = np.random.default_rng(4)
        ties = lengths = 0
        games = 200
        for _ in range(games):
            state, _ = reset(DEFAULT_CONFIG, rng)
            while True:
                a_b = rule_agent_act(state, "defensive", rng, player="B")
                a_a = int(rng.integers(0, 5))
                state, reward, done, _ = step(state, a_a, a_b)
                if done:
                    ties += reward == 0.0
                    lengths += state.step
                    break
        assert ties / games >= 0.35
        assert lengths / games >= 55


class TestSampleMode:
    def test_balanced(self):
        rng = np.random.default_rng(5)
        n = 10_000
        off = sum(sample_mode(rng) == "offensive" for _ in range(n))
        assert abs(off - n / 2) <= 3 * math.sqrt(n * 0.25)

    def test_fixed_policies(self):
        rng = np.random.default_rng(6)
        assert all(sample_mode(rng, "offensive") == "offensive" for _ in range(20))
        assert all(sample_mode(rng, "defensive") == "defensive" for _ in range(20))

    def test_reproducible(self):
        seq_a = [sample_mode(np.random.default_rng(7)) for _ in range(1)]
        seq_b = [sample_mode(np.random.default_rng(7)) for _ in range(1)]
        assert seq_a == seq_b


class TestRender:
    def test_marks_players_and_ball(self):
        state = SoccerState((2, 2), (6, 3), "A")
        text = soccer.render(state)
        assert "A*" in text and "B " in text
        assert len(text.splitlines()) == 6
