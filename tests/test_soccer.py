import math
from typing import NamedTuple, Tuple

import numpy as np
import pytest

from dron import soccer
from dron.soccer import ACTIONS, FEATURES, OpponentTallies, reset, rule_agent, sample_mode, step
import soccer_reference as ref
from soccer_reference import reference_move, reference_step

A_N, A_S, A_E, A_W, A_STAND = range(5)
OFFENSIVE, DEFENSIVE = range(2)  # MODES indices
index = soccer.index


def state_at(pos_a, pos_b, ball):
    """The joint state of two (col, row) cells and a ball holder "A" or "B"."""
    return soccer.STATE_INDEX.item(index(pos_a), index(pos_b), "AB".index(ball))


def fields(joint):
    """A's cell index, B's cell index and the ball holder of a joint state."""
    return tuple(soccer.STATE_FIELDS[:, joint].tolist())


def reference_position(joint):
    """The (A's cell, B's cell, ball) of a joint state in the reference's terms."""
    cell_a, cell_b, holder = soccer.STATE_FIELDS[:, joint].tolist()
    return divmod(cell_a, ref.HEIGHT), divmod(cell_b, ref.HEIGHT), "AB"[holder]


class Position(NamedTuple):
    """A game in the reference's terms: (col, row) cells and "A" or "B"."""

    pos_a: Tuple[int, int]
    pos_b: Tuple[int, int]
    ball: str
    step: int = 0

    def joint(self):
        return state_at(self.pos_a, self.pos_b, self.ball)


def random_position(rng):
    cells = [c for c in ref.cells() if ref.playable(c)]
    while True:
        pa = cells[int(rng.integers(0, len(cells)))]
        pb = cells[int(rng.integers(0, len(cells)))]
        if pa == pb:
            continue
        ball = "A" if rng.random() < 0.5 else "B"
        position = Position(pa, pb, ball, int(rng.integers(0, 99)))
        # skip states that are already terminal positions
        if (pa if ball == "A" else pb) in ref.GOAL_OF[ball]:
            continue
        return position


class TestGeometry:
    def test_goals_and_shaded_disjoint(self):
        goals = set(soccer.LEFT_GOAL) | set(soccer.RIGHT_GOAL)
        assert not goals & soccer.SHADED
        assert soccer.LEFT_GOAL == ((0, 2), (0, 3))
        assert soccer.RIGHT_GOAL == ((8, 2), (8, 3))
        assert soccer.SHADED == ref.SHADED


class TestReset:
    def test_ball_owner_balanced(self):
        rng = np.random.default_rng(0)
        n = 10_000
        to_a = sum(fields(reset(rng)[0])[2] == 0 for _ in range(n))
        sigma = math.sqrt(n * 0.25)
        assert abs(to_a - n / 2) <= 3 * sigma

    def test_never_on_shaded_or_goal(self):
        rng = np.random.default_rng(1)
        goals = ref.LEFT_GOAL | ref.RIGHT_GOAL
        free = [c for c in ref.cells() if c not in ref.SHADED and c not in goals]
        left = {index(c) for c in free if c[0] <= 3}
        right = {index(c) for c in free if c[0] >= 5}
        for _ in range(2000):
            cell_a, cell_b, _ = fields(reset(rng)[0])
            assert cell_a in left and cell_b in right

    def test_deterministic(self):
        a = reset(np.random.default_rng(42))
        b = reset(np.random.default_rng(42))
        assert a == b


class TestStep:
    """`step` of one game: the next joint state, whether the move was
    blocked, and the outcome."""

    def test_both_stand(self):
        joint = state_at((2, 2), (6, 3), "A")
        assert step(joint, A_STAND, A_STAND) == (joint, False, 0)

    def test_collision_transfers_ball(self):
        # both into (4, 2)
        assert step(state_at((3, 2), (5, 2), "A"), A_E, A_W) == (
            state_at((3, 2), (5, 2), "B"), True, 0)

    def test_swap_blocked(self):
        assert step(state_at((3, 2), (4, 2), "B"), A_E, A_W) == (
            state_at((3, 2), (4, 2), "A"), True, 0)

    def test_move_onto_standing_player(self):
        assert step(state_at((3, 2), (4, 2), "B"), A_E, A_STAND) == (
            state_at((3, 2), (4, 2), "A"), True, 0)

    def test_goal_scores(self):
        assert step(state_at((7, 2), (1, 5), "A"), A_E, A_STAND) == (
            state_at((8, 2), (1, 5), "A"), False, 1)

    def test_goal_after_a_block(self):
        # B takes the ball by blocking while standing on the goal it attacks
        assert step(state_at((1, 2), (0, 2), "A"), A_W, A_STAND) == (
            state_at((1, 2), (0, 2), "B"), True, -1)

    def test_invalid_move_becomes_stand(self):
        nxt, _, _ = step(state_at((1, 0), (6, 3), "A"), A_N, A_STAND)  # off the top edge
        assert fields(nxt)[0] == index((1, 0))

    def test_matches_reference_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            position = random_position(rng)
            for aa in range(5):
                for ab in range(5):
                    nxt, blocked, outcome = step(position.joint(), aa, ab)
                    ra, rb, ball, _, ref_reward, ref_done = reference_step(*position, aa, ab)
                    assert nxt == state_at(ra, rb, ball)
                    assert outcome == ref_reward and bool(outcome) == ref_done
                    assert blocked == (ball != position.ball)

    def test_many_matches_reference(self):
        # every joint move from 200 random states, as one batch
        rng = np.random.default_rng(9)
        positions = [random_position(rng) for _ in range(200)]
        joint = [(p.joint(), aa, ab) for p in positions
                 for aa in range(5) for ab in range(5)]
        states, blocked, outcome = step(*map(np.array, zip(*joint)))
        want = [reference_step(*p, aa, ab) for p in positions
                for aa in range(5) for ab in range(5)]
        for i, (ra, rb, ball, _, reward, _) in enumerate(want):
            assert reference_position(states[i]) == (ra, rb, ball)
            assert blocked[i] == (ball != positions[i // 25].ball)
            assert outcome[i] == reward

    def test_invariants_over_random_rollouts(self):
        rng = np.random.default_rng(8)
        shaded = {index(c) for c in ref.SHADED}
        for _ in range(300):
            joint, _ = reset(rng)
            for _ in range(soccer.HORIZON):
                joint, _, outcome = step(joint, int(rng.integers(0, 5)), int(rng.integers(0, 5)))
                cell_a, cell_b, holder = fields(joint)
                assert cell_a != cell_b
                assert cell_a not in shaded and cell_b not in shaded
                assert holder in (0, 1)
                assert outcome in (-1, 0, 1)
                if outcome:
                    break


class TestMoveTable:
    def test_default_field_matches_reference(self):
        table = soccer.MOVE_TABLE
        cells = ref.cells()
        assert table.shape == (len(cells), len(ACTIONS))
        for cell in cells:
            assert table[index(cell)].tolist() == [index(reference_move(cell, a))
                                                   for a in range(len(ACTIONS))]


# every rule table, and the tally rows of OpponentTallies
TABLES = (soccer.MOVE_TABLE, soccer.GOAL_MASK, soccer.STATE_FIELDS, soccer.STATE_INDEX,
          soccer.NEXT_STATE, soccer.BLOCKED, soccer.OUTCOME, soccer.FEATURES,
          soccer.MOVE_CATEGORY, soccer.TIE_COUNTS, soccer.TIE_MOVES,
          OpponentTallies.CATEGORY_ROWS, OpponentTallies.LAST_MOVE_ROWS)
STATES = range(soccer.STATE_FIELDS.shape[1])


class TestRuleTables:
    """Every entry of the rule tables, B's moves and A's view, against the
    per-call scoring rules of `soccer_reference`."""

    def test_move_targets(self):
        for cell in ref.cells():
            want = [index(t) for t in ref.move_targets(cell)]
            assert soccer.MOVE_TABLE[index(cell)].tolist() == want

    def test_states(self):
        # every pair of distinct playable cells with either holder, once
        playable = [index(c) for c in ref.cells() if ref.playable(c)]
        want = {(a, b, h) for a in playable for b in playable if a != b for h in (0, 1)}
        got = [fields(joint) for joint in STATES]
        assert len(got) == len(want) == 4140 and set(got) == want
        for joint, key in enumerate(got):
            assert soccer.STATE_INDEX[key] == joint
        assert np.count_nonzero(soccer.STATE_INDEX >= 0) == len(want)

    def test_joint_moves(self):
        # next cells, holder, reward, done and blocked of every (state, A's
        # move, B's move), in the tables and through `step`
        for joint in STATES:
            pos_a, pos_b, ball = reference_position(joint)
            for aa in range(len(ACTIONS)):
                for ab in range(len(ACTIONS)):
                    ra, rb, next_ball, _, reward, done = reference_step(
                        pos_a, pos_b, ball, 0, aa, ab)
                    key = (joint, aa, ab)
                    assert reference_position(soccer.NEXT_STATE[key]) == (ra, rb, next_ball)
                    assert soccer.OUTCOME[key] == reward
                    assert (soccer.OUTCOME[key] != 0) == done
                    assert soccer.BLOCKED[key] == (next_ball != ball)
                    got = step(joint, aa, ab)
                    assert got == (soccer.NEXT_STATE[key], next_ball != ball, reward)
        assert soccer.NEXT_STATE.dtype == np.int16 and soccer.OUTCOME.dtype == np.int8

    def test_tie_sets(self):
        assert soccer.TIE_COUNTS.dtype == soccer.TIE_MOVES.dtype == np.int8
        for m, mode in enumerate(soccer.MODES):
            for joint in STATES:
                pos_a, pos_b, ball = reference_position(joint)
                want = ref.rule_choices(mode, "B", pos_b, pos_a, ball == "B")
                assert soccer.TIE_COUNTS[m, joint] == len(want)
                assert soccer.TIE_MOVES[m, joint, :len(want)].tolist() == want

    def test_categories(self):
        assert soccer.MOVE_CATEGORY.dtype == np.int8
        for joint in STATES:
            pos_a, pos_b, _ = reference_position(joint)
            for action in range(len(ACTIONS)):
                want = ref.classify("B", pos_b, action, pos_a)
                assert soccer.MOVE_CATEGORIES[soccer.MOVE_CATEGORY[joint, action]] == want

    def test_features_bit_for_bit(self):
        for joint in STATES:
            pos_a, pos_b, ball = reference_position(joint)
            want = ref.features(pos_a, pos_b, ball == "A", ref.LEFT_GOAL, ref.RIGHT_GOAL)
            assert FEATURES[joint].tobytes() == want.tobytes()

    def test_start_cells(self):
        half = ref.WIDTH // 2
        goals = ref.LEFT_GOAL | ref.RIGHT_GOAL
        for side, cols in zip(soccer.START_CELLS,
                              (range(half), range(ref.WIDTH - half, ref.WIDTH))):
            assert list(side) == [index((c, r)) for c in cols for r in range(ref.HEIGHT)
                                  if ref.playable((c, r)) and (c, r) not in goals]

    def test_under_one_megabyte(self):
        assert sum(t.nbytes for t in TABLES) < 2 ** 20

    def test_writing_a_table_raises(self):
        for table in TABLES:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1


class TestRuleAgentDraws:
    def test_draws_only_on_a_tie(self):
        # one game's `rule_agent` with its stream's `integers`: the move and
        # the stream position of drawing among the reference's choices with
        # `integers(0, count)`, and nothing drawn when there is one choice
        rng = np.random.default_rng(11)
        counts = set()
        for _ in range(300):
            position = random_position(rng)
            for m, mode in enumerate(soccer.MODES):
                choices = ref.rule_choices(mode, "B", position.pos_b, position.pos_a,
                                           position.ball == "B")
                seed = int(rng.integers(0, 2 ** 31))
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                fresh = got_rng.bit_generator.state
                got = rule_agent(m, position.joint(), got_rng.integers)
                want = choices[0] if len(choices) == 1 else choices[
                    int(want_rng.integers(0, len(choices)))]
                assert got == want
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                if len(choices) == 1:
                    assert got_rng.bit_generator.state == fresh
                counts.add(len(choices))
        assert counts == {1, 2, 3}


class TestRuleAgentMany:
    def test_equals_one_game_at_a_time(self):
        # `rule_agent` on arrays with `TieDraws.draw`: the same moves, and
        # the same draws, as each game's own with its stream's `integers`
        rng = np.random.default_rng(12)
        states = [random_position(rng).joint() for _ in range(400)]
        modes = [int(rng.integers(0, 2)) for _ in states]
        draws = soccer.TieDraws([np.random.default_rng([5, i]) for i in range(len(states))])
        got = rule_agent(np.array(modes), np.array(states), draws.draw)
        ones = [np.random.default_rng([5, i]) for i in range(len(states))]
        assert got.tolist() == [rule_agent(mode, state, one.integers)
                                for state, mode, one in zip(states, modes, ones)]
        # each game's next draw is the one one-game play makes next
        assert draws.draw(np.full(len(states), 5)).tolist() == [one.integers(0, 5) for one in ones]


class TestOneForm:
    """`rule_agent` and `step` on arrays of games against the same calls on
    each entry as ints."""

    def test_rule_agent_on_every_mode_and_state(self):
        # a scripted draw: entry i breaks a tie among n with words[i] % n
        modes, joints = np.divmod(np.arange(len(soccer.MODES) * len(STATES)), len(STATES))
        words = np.random.default_rng(13).integers(0, 120, size=len(joints))  # int8-sized
        counts = []

        def scripted(n):
            counts.append(n)
            return words % n

        got = rule_agent(modes, joints, scripted)
        assert counts[0].tolist() == soccer.TIE_COUNTS.ravel().tolist()
        want = [rule_agent(m, j, lambda n, w=w: w % n)
                for m, j, w in zip(modes.tolist(), joints.tolist(), words.tolist())]
        assert got.tolist() == want
        assert want != [soccer.TIE_MOVES[m, j, 0] for m, j in zip(modes, joints)]

    @pytest.mark.parametrize("dtype", [np.int16, np.intp])
    def test_step_on_every_joint_move_of_sampled_states(self, dtype):
        # int16 is the dtype of `NEXT_STATE`, so of every state after the
        # first lockstep step; the last states overflow it when scaled by 25
        rng = np.random.default_rng(14)
        sampled = [*rng.choice(len(STATES), size=300, replace=False).tolist(), len(STATES) - 1]
        joint, action_a, action_b = (a.ravel() for a in np.meshgrid(
            np.array(sampled, dtype=dtype), np.arange(5), np.arange(5), indexing="ij"))
        got = step(joint, action_a, action_b)
        want = [step(j, a, b) for j, a, b in
                zip(joint.tolist(), action_a.tolist(), action_b.tolist())]
        assert list(zip(*(column.tolist() for column in got))) == want


def lemire(words, n):
    """`Generator.integers(0, n)` for 1 < n < 2**32 on a stream of 32-bit
    words, transcribed from numpy's bounded Lemire draw: the draw and the
    number of words it used."""
    threshold = (2 ** 32 - n) % n
    for used, word in enumerate(words, 1):
        product = word * n
        if product % 2 ** 32 >= threshold:
            return product >> 32, used
    raise AssertionError("ran out of words")


class ScriptedWords:
    """A stand-in stream whose 32-bit words are given."""

    def __init__(self, words):
        self.words = list(words)

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2 ** 32, np.uint32)
        block, self.words = self.words[:size], self.words[size:]
        return np.array(block, dtype=dtype)


class TestTieDraws:
    """`TieDraws` against the draws it stands in for: successive
    `Generator.integers(0, n)` calls on each game's stream."""

    def test_equal_successive_integers_calls(self):
        # twin streams taken just after a reset, n in 2..5 or no tie; every
        # game runs out of its first block, and the streams stay aligned
        rng = np.random.default_rng(21)
        twins = [np.random.default_rng([21, g]) for g in range(1000)]
        blocks = [np.random.default_rng([21, g]) for g in range(1000)]
        for one, many in zip(twins, blocks):
            assert reset(one) == reset(many)
        draws = soccer.TieDraws(blocks)
        drawn = np.zeros(len(twins), dtype=int)
        for _ in range(2 * soccer.TieDraws.BLOCK):
            n = np.where(rng.random(len(twins)) < 0.8, rng.integers(2, 6, size=len(twins)), 1)
            want = [twins[g].integers(0, k) if k > 1 else 0 for g, k in enumerate(n.tolist())]
            assert draws.draw(n).tolist() == want
            drawn += n > 1
        assert (drawn > soccer.TieDraws.BLOCK).all()
        for g, one in enumerate(twins):
            left = draws.words.ravel()[draws.at[g]:(g + 1) * soccer.TieDraws.BLOCK]
            assert left.tolist() == one.integers(0, 2 ** 32, size=len(left),
                                                 dtype=np.uint32).tolist()
            assert blocks[g].random() == one.random()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_zero_word_follows_lemire(self, n):
        # PCG64 cannot be made to give a zero word, so the stream is
        # scripted; zeros stand inside a block and at both ends of one
        block = soccer.TieDraws.BLOCK
        words = [0, 7, 2 ** 31, 0, 0, 2 ** 32 - 1, *range(1, block - 7), 0, 0, 5, 3, 0, 9]
        stream = list(words)
        draws = soccer.TieDraws([ScriptedWords(words + [1] * 2 * block)])
        assert draws.zeros
        while len(stream) > 2:
            want, used = lemire(stream, n)
            stream = stream[used:]
            assert draws.draw(np.array([n])).tolist() == [want]
        assert draws.at[0] == len(words) - len(stream) - block

    def test_keep_drops_finished_games(self):
        twins = [np.random.default_rng([22, g]) for g in range(6)]
        draws = soccer.TieDraws([np.random.default_rng([22, g]) for g in range(6)])
        draws.draw(np.array([3, 1, 3, 3, 2, 4]))
        draws.keep(np.array([True, False, True, False, False, True]))
        got = draws.draw(np.full(3, 5))
        kept = [twins[0], twins[2], twins[5]]
        want = [(one.integers(0, k), one.integers(0, 5))[1] for one, k in zip(kept, (3, 3, 4))]
        assert got.tolist() == want


class TestFeaturize:
    def test_length_and_ball_flag(self):
        phi = FEATURES[state_at((2, 2), (6, 3), "A")]
        assert phi.shape == (15,)
        assert phi[14] == 1.0
        assert FEATURES[state_at((2, 2), (6, 3), "B"), 14] == 0.0

    def test_golden_vector(self):
        # A at (2,3), B at (6,1), A holds the ball
        phi = FEATURES[state_at((2, 3), (6, 1), "A")]
        expected = np.array([
            2 / 8, 3 / 5,          # self
            6 / 8, 1 / 5,          # opponent
            0.0, 1.0, 0.0, 1.0,    # axis limits
            0.0, 2 / 5, 3 / 5,     # own goal (left)
            1.0, 2 / 5, 3 / 5,     # opposing goal (right)
            1.0,                   # ball flag
        ])
        assert np.allclose(phi, expected)

    def test_cached_frame_equals_per_call_expressions(self):
        # the constant features were computed on every call; they must keep
        # their bytes now that they are computed once
        def per_call(position):
            sx = 1.0 / (soccer.WIDTH - 1)
            sy = 1.0 / (soccer.HEIGHT - 1)
            me, other = position.pos_a, position.pos_b

            def goal_block(goal):
                rows = sorted(g[1] for g in goal)
                return [goal[0][0] * sx, rows[0] * sy, rows[-1] * sy]

            return np.array([
                me[0] * sx, me[1] * sy, other[0] * sx, other[1] * sy,
                0.0, (soccer.WIDTH - 1) * sx, 0.0, (soccer.HEIGHT - 1) * sy,
                *goal_block(soccer.LEFT_GOAL),
                *goal_block(soccer.RIGHT_GOAL),
                1.0 if position.ball == "A" else 0.0,
            ])

        cells = [c for c in ref.cells() if ref.playable(c)]
        for a, b in zip(cells, cells[::-1]):
            for ball in ("A", "B"):
                position = Position(a, b, ball)
                got = FEATURES[position.joint()]
                assert got.tobytes() == per_call(position).tobytes()


def category(joint, action):
    return soccer.MOVE_CATEGORIES[soccer.MOVE_CATEGORY[joint, action]]


class TestClassifyMove:
    def test_stand(self):
        state = state_at((2, 2), (6, 3), "A")
        assert category(state, A_STAND) == "stand"

    def test_invalid_move_is_stand(self):
        state = state_at((2, 2), (6, 0), "A")
        assert category(state, A_N) == "stand"

    def test_approach_agent(self):
        state = state_at((2, 2), (5, 2), "A")
        assert category(state, A_W) == "approach_agent"

    def test_priority_avoid_wins_over_goal(self):
        # golden case: B at (4,1), A at (2,1); moving W decreases distance to
        # A's goal (left) but increases... construct the reverse: B moves E,
        # away from A and toward B's own goal side; distance to A increases
        # so avoid_agent wins by priority over any goal category
        state = state_at((2, 1), (4, 1), "A")
        assert category(state, A_E) == "avoid_agent"

    def test_total_over_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            joint = random_position(rng).joint()
            for action in range(5):
                cat = soccer.MOVE_CATEGORY[joint, action]
                assert 0 <= cat < len(soccer.MOVE_CATEGORIES)


class TestOpponentFeatures:
    """The one-row tally a training game keeps."""

    def test_fresh_episode_all_zero(self):
        assert np.all(OpponentTallies(1).features()[0] == 0.0)
        assert OpponentTallies(1).features()[0].shape == (16,)

    def test_single_observation(self):
        tallies = OpponentTallies(1)
        before = state_at((2, 2), (5, 2), "A")  # B moving W approaches A
        after, blocked, _ = step(before, A_STAND, A_W)
        tallies.observe(before, A_W, after, blocked)
        phi = tallies.features()[0]
        assert np.allclose(phi[0:5], [1, 0, 0, 0, 0])
        assert np.allclose(phi[5:10], [1, 0, 0, 0, 0])
        assert phi[10 + A_W] == 1.0
        assert phi[15] == 0.0
        assert tallies.last_category == soccer.MOVE_CATEGORIES.index("approach_agent")

    @pytest.mark.parametrize("ball,lost", [("A", 1.0), ("B", 0.0)])
    def test_a_blocked_move_that_leaves_b_the_ball_loses_it(self, ball, lost):
        # both players step onto (4, 2): neither moves and the ball changes hands
        before = state_at((3, 2), (5, 2), ball)
        after, blocked, _ = step(before, A_E, A_W)
        assert blocked and soccer.STATE_FIELDS[2, after] == "AB".index(ball) ^ 1
        tallies = OpponentTallies(1)
        tallies.observe(before, A_W, after, blocked)
        assert tallies.features()[0, 15] == lost

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(5)
        tallies = OpponentTallies(1)
        joint, _ = reset(rng)
        for _ in range(60):
            action = int(rng.integers(0, 5))
            nxt, blocked, outcome = step(joint, int(rng.integers(0, 5)), action)
            tallies.observe(joint, action, nxt, blocked)
            joint = nxt if not outcome else reset(rng)[0]
            phi = tallies.features()[0]
            assert abs(phi[0:5].sum() - 1.0) <= 1e-12
            assert 0.0 <= phi[15] <= 1.0


class TestRuleAgent:
    def test_unique_goalward_move(self):
        # offensive B with the ball at (2,2): W is the unique distance-
        # minimizing move toward the left goal
        joint = state_at((7, 5), (2, 2), "B")
        action = rule_agent(OFFENSIVE, joint, np.random.default_rng(0).integers)
        assert action == A_W

    def test_defensive_guards_goal(self):
        # defensive B without the ball heads for the guard cell (7, row)
        joint = state_at((3, 2), (5, 5), "A")
        action = rule_agent(DEFENSIVE, joint, np.random.default_rng(1).integers)
        target = reference_move((5, 5), action)
        assert ref.manhattan(target, (7, 2)) < ref.manhattan((5, 5), (7, 2))

    def test_defensive_never_enters_own_goal_with_ball(self):
        rng = np.random.default_rng(2)
        joint = state_at((6, 2), (7, 2), "B")
        for _ in range(50):
            action = rule_agent(DEFENSIVE, joint, rng.integers)
            assert reference_move((7, 2), action) not in ref.RIGHT_GOAL

    def test_offensive_beats_random_smoke(self):
        # small-sample version of the acceptance run
        rng = np.random.default_rng(3)
        wins = lengths = 0
        games = 300
        for _ in range(games):
            joint, _ = reset(rng)
            for length in range(1, soccer.HORIZON + 1):
                a_b = rule_agent(OFFENSIVE, joint, rng.integers)
                a_a = int(rng.integers(0, 5))
                joint, _, outcome = step(joint, a_a, a_b)
                if outcome:
                    break
            wins += outcome == -1
            lengths += length
        assert wins / games >= 0.9
        assert lengths / games <= 30

    def test_defensive_ties_random_smoke(self):
        rng = np.random.default_rng(4)
        ties = lengths = 0
        games = 200
        for _ in range(games):
            joint, _ = reset(rng)
            for length in range(1, soccer.HORIZON + 1):
                a_b = rule_agent(DEFENSIVE, joint, rng.integers)
                a_a = int(rng.integers(0, 5))
                joint, _, outcome = step(joint, a_a, a_b)
                if outcome:
                    break
            ties += outcome == 0
            lengths += length
        assert ties / games >= 0.35
        assert lengths / games >= 55


class TestSampleMode:
    def test_balanced(self):
        rng = np.random.default_rng(5)
        n = 10_000
        off = sum(sample_mode(rng) == OFFENSIVE for _ in range(n))
        assert abs(off - n / 2) <= 3 * math.sqrt(n * 0.25)

    def test_fixed_policies(self):
        rng = np.random.default_rng(6)
        assert soccer.MODES == ("offensive", "defensive")
        assert all(sample_mode(rng, "offensive") == OFFENSIVE for _ in range(20))
        assert all(sample_mode(rng, "defensive") == DEFENSIVE for _ in range(20))

    def test_reproducible(self):
        seq_a = [sample_mode(np.random.default_rng(7)) for _ in range(1)]
        seq_b = [sample_mode(np.random.default_rng(7)) for _ in range(1)]
        assert seq_a == seq_b


class TestRender:
    def test_marks_players_and_ball(self):
        text = soccer.render(state_at((2, 2), (6, 3), "A"))
        assert "A*" in text and "B " in text
        assert len(text.splitlines()) == 6

    def test_golden_board(self):
        # B holds the ball on its goal's top cell, A stands on the right goal's lower cell
        assert soccer.render(state_at((8, 3), (0, 2), "B")).splitlines() == [
            "# . . . . . . . # ",
            "# . . . . . . . # ",
            "B*. . . . . . . = ",
            "= . . . . . . . A ",
            "# . . . . . . . # ",
            "# . . . . . . . # ",
        ]
