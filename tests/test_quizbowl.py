import math
from dataclasses import fields

import numpy as np
import pytest

from dron import quizbowl as qb
from dron.errors import ConfigurationError, UsageError
from dron.quizbowl import (
    BUZZ,
    WAIT,
    DEFAULT_QUIZ_CONFIG,
    OpponentProfile,
    QuizConfig,
    QuizState,
    action_supervision_target,
    dqnself_reward,
    featurize,
    make_population,
    opponent_features,
    opponent_type,
    sample_episode,
    step,
)


def single_population(mu=0.5, sigma=0.0, rho=1.0):
    return (OpponentProfile(mean_buzz_frac=mu, spread=sigma, accuracy=rho),)


def forced_state(t=5, length=100, answer=0, correct_argmax=True, v=50, **kw):
    belief = np.full(v, -math.log(v))
    idx = answer if correct_argmax else (answer + 1) % v
    belief[idx] = belief[idx] + 1.0  # argmax at idx (log probs need not renormalize for argmax)
    return QuizState(
        t=t, length=length, answer=answer, belief=belief,
        prev_belief=np.full(v, -math.log(v)), **kw,
    )


class TestSampleEpisode:
    def test_deterministic(self):
        cfg = DEFAULT_QUIZ_CONFIG
        pop = single_population()
        a, _ = sample_episode(cfg, pop, np.random.default_rng(9))
        b, _ = sample_episode(cfg, pop, np.random.default_rng(9))
        assert a.length == b.length and a.answer == b.answer
        assert a.opponent_buzz_pos == b.opponent_buzz_pos
        assert np.array_equal(a.belief, b.belief)

    def test_buzz_position_in_range(self):
        cfg = DEFAULT_QUIZ_CONFIG
        pop = single_population(mu=0.05, sigma=0.5)
        rng = np.random.default_rng(1)
        for _ in range(500):
            state, _ = sample_episode(cfg, pop, rng)
            assert 1 <= state.opponent_buzz_pos <= state.length

    def test_zero_spread_buzzes_at_mu(self):
        cfg = QuizConfig(question_min=100, question_max=100)
        pop = single_population(mu=0.5, sigma=0.0)
        state, _ = sample_episode(cfg, pop, np.random.default_rng(2))
        assert state.opponent_buzz_pos == 50

    def test_length_range_respected(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            state, _ = sample_episode(DEFAULT_QUIZ_CONFIG, single_population(), rng)
            assert 60 <= state.length <= 120


def revealed_belief(t, length, answer, cfg, rng):
    """The belief `step` draws for word t when the agent waits on word t - 1
    (both sides locked out, so nothing else can happen on that word)."""
    state = forced_state(t=t - 1, length=length, answer=answer, v=cfg.vocab,
                         agent_locked=True, opponent_locked=True)
    nxt, reward, done, opponent = step(state, WAIT, cfg, rng)
    assert (nxt.t, reward, done, opponent) == (t, 0.0, False, None)
    return nxt.belief


class TestAdvanceBelief:
    """A word that ends nothing (`step` with the agent waiting) draws the
    next belief."""

    def test_normalized(self):
        rng = np.random.default_rng(4)
        # the opponent buzzes on the last word, which the 30 words never reach
        state, _ = sample_episode(DEFAULT_QUIZ_CONFIG, single_population(mu=1.0), rng)
        for t in range(1, 31):
            state, _, done, _ = step(state, WAIT, DEFAULT_QUIZ_CONFIG, rng)
            assert state.t == t and not done
            assert abs(np.exp(state.belief).sum() - 1.0) <= 1e-6

    def test_chance_accuracy_at_start(self):
        cfg = DEFAULT_QUIZ_CONFIG
        rng = np.random.default_rng(5)
        pop = single_population()
        hits = 0
        n = 10_000
        for _ in range(n):
            state, _ = sample_episode(cfg, pop, rng)
            hits += qb.belief_correct(state)
        assert abs(hits / n - 1 / cfg.vocab) <= 0.01

    def test_high_accuracy_at_end_alpha10(self):
        cfg = QuizConfig(belief_alpha=10.0, belief_kappa=1.0, question_min=100, question_max=100)
        rng = np.random.default_rng(6)
        hits = 0
        n = 2000
        for _ in range(n):
            hits += int(np.argmax(revealed_belief(100, 100, 7, cfg, rng))) == 7
        assert hits / n >= 0.9

    def test_expected_true_probability_nondecreasing(self):
        # Monte Carlo over the revealed words at a grid of positions
        cfg = DEFAULT_QUIZ_CONFIG
        rng = np.random.default_rng(7)
        means = []
        for t in (1, 25, 50, 75, 100):
            probs = [
                math.exp(revealed_belief(t, 100, 3, cfg, rng)[3]) for _ in range(10_000)
            ]
            means.append(float(np.mean(probs)))
        for lo, hi in zip(means, means[1:]):
            assert hi >= lo - 0.02


class TestStep:
    def test_correct_buzz_ends_with_plus_ten(self):
        state = forced_state(correct_argmax=True, opponent_buzz_pos=90)
        nxt, reward, done, opponent = step(state, BUZZ, DEFAULT_QUIZ_CONFIG,
                                           np.random.default_rng(0))
        assert reward == 10.0 and done and opponent is None

    def test_wrong_buzz_locks_and_continues(self):
        state = forced_state(correct_argmax=False, opponent_buzz_pos=90)
        nxt, reward, done, opponent = step(state, BUZZ, DEFAULT_QUIZ_CONFIG,
                                           np.random.default_rng(0))
        assert reward == -5.0 and not done
        assert nxt.agent_locked and opponent is None
        assert nxt.t == state.t + 1

    def test_locked_agent_cannot_buzz(self):
        state = forced_state(correct_argmax=True, agent_locked=True, opponent_buzz_pos=90)
        _, reward, done, opponent = step(state, BUZZ, DEFAULT_QUIZ_CONFIG,
                                         np.random.default_rng(0))
        assert reward == 0.0 and not done and opponent is None

    def test_opponent_correct_costs_ten(self):
        state = forced_state(t=30, opponent_buzz_pos=30, opponent_correct=True)
        _, reward, done, opponent = step(state, WAIT, DEFAULT_QUIZ_CONFIG,
                                         np.random.default_rng(0))
        assert reward == -10.0 and done and opponent is True

    def test_opponent_wrong_locks_opponent(self):
        state = forced_state(t=30, opponent_buzz_pos=30, opponent_correct=False)
        nxt, reward, done, opponent = step(state, WAIT, DEFAULT_QUIZ_CONFIG,
                                           np.random.default_rng(0))
        assert reward == 0.0 and not done and nxt.opponent_locked
        assert opponent is False

    def test_exhaustion_zero_reward(self):
        state = forced_state(t=100, length=100, correct_argmax=False,
                             agent_locked=True, opponent_locked=True)
        _, reward, done, _ = step(state, WAIT, DEFAULT_QUIZ_CONFIG,
                                  np.random.default_rng(0))
        assert reward == 0.0 and done

    @pytest.mark.parametrize("kw,action", [
        (dict(correct_argmax=True, opponent_buzz_pos=90), BUZZ),
        (dict(correct_argmax=False, opponent_buzz_pos=90), BUZZ),
        (dict(t=30, opponent_buzz_pos=30, opponent_correct=True), WAIT),
        (dict(t=30, opponent_buzz_pos=30, opponent_correct=False), BUZZ),
        (dict(t=100, length=100, agent_locked=True, opponent_locked=True), WAIT),
        (dict(opponent_buzz_pos=90), WAIT),
    ])
    def test_input_state_never_modified(self, kw, action):
        state = forced_state(**kw)
        before = {f.name: getattr(state, f.name) for f in fields(state)}
        arrays = (state.belief.copy(), state.prev_belief.copy())
        nxt, _, done, _ = step(state, action, DEFAULT_QUIZ_CONFIG, np.random.default_rng(0))
        assert nxt is not state
        assert all(getattr(state, name) is value for name, value in before.items())
        assert np.array_equal(state.belief, arrays[0])
        assert np.array_equal(state.prev_belief, arrays[1])

    def test_step_after_done_raises(self):
        state = forced_state(done=True)
        with pytest.raises(UsageError):
            step(state, WAIT, DEFAULT_QUIZ_CONFIG, np.random.default_rng(0))

    def test_episode_invariants(self):
        cfg = DEFAULT_QUIZ_CONFIG
        rng = np.random.default_rng(8)
        pop = make_population("mixed", rng)
        for _ in range(300):
            state, _ = sample_episode(cfg, pop, rng)
            total = 0.0
            decisions = 0
            buzzes = 0
            while True:
                action = BUZZ if rng.random() < 0.05 else WAIT
                before = state
                state, reward, done, opponent = step(state, action, cfg, rng)
                agent_won = reward == qb.REWARD_CORRECT
                if agent_won or state.agent_locked and not before.agent_locked:
                    assert action == BUZZ and not before.agent_locked
                    buzzes += 1
                # the opponent buzzes on its word unless it is locked out or
                # the agent's correct buzz has ended the game first
                opponent_buzzed = (before.t == before.opponent_buzz_pos
                                   and not before.opponent_locked and not agent_won)
                assert (opponent is not None) == opponent_buzzed
                assert reward in (10.0, -5.0, -10.0, 0.0, -15.0)
                total += reward
                decisions += 1
                if done:
                    break
            assert -15.0 <= total <= 10.0
            assert buzzes <= 1
            assert decisions <= state.length + 1


class TestFinishLockedOut:
    @pytest.mark.parametrize("kw,reward,opponent_locked,opponent", [
        (dict(t=10, opponent_buzz_pos=30, opponent_correct=True), -10.0, False, True),
        (dict(t=30, opponent_buzz_pos=30, opponent_correct=True), -10.0, False, True),
        (dict(t=10, opponent_buzz_pos=30, opponent_correct=False), 0.0, True, False),
        (dict(t=10, opponent_buzz_pos=30, opponent_correct=True, opponent_locked=True),
         0.0, True, None),
    ], ids=["opponent-right", "opponent-right-now", "opponent-wrong", "opponent-locked"])
    def test_settles_the_opponent_buzz(self, kw, reward, opponent_locked, opponent):
        state = forced_state(agent_locked=True, **kw)
        end, got, buzz = qb.finish_locked_out(state)
        assert got == reward and end.done and end.agent_locked
        assert end.opponent_locked == opponent_locked
        assert buzz is opponent

    def test_passed_buzz_word_is_not_replayed(self):
        state = forced_state(t=40, agent_locked=True, opponent_buzz_pos=30,
                             opponent_correct=True)
        assert qb.opponent_buzz(state) is None
        assert qb.finish_locked_out(state)[1] == 0.0

    @pytest.mark.parametrize("kw", [dict(agent_locked=False),
                                    dict(agent_locked=True, done=True)])
    def test_needs_a_running_locked_out_game(self, kw):
        with pytest.raises(UsageError):
            qb.finish_locked_out(forced_state(**kw))


class TestFeaturize:
    def test_shape(self):
        state = forced_state()
        assert featurize(state).shape == (102,)

    def test_wrong_buzz_flag(self):
        state = forced_state()
        assert featurize(state)[-1] == 0.0
        assert featurize(forced_state(agent_locked=True))[-1] == 1.0

    def test_previous_belief_uniform_at_start(self):
        state, _ = sample_episode(DEFAULT_QUIZ_CONFIG, single_population(),
                                  np.random.default_rng(10))
        phi = featurize(state)
        assert np.allclose(phi[50:100], -math.log(50))
        assert phi[100] == 0.0


class TestOpponentFeatures:
    def test_new_opponent_priors(self):
        profile = OpponentProfile(mean_buzz_frac=0.4, spread=0.1, accuracy=0.8)
        assert np.allclose(opponent_features(profile), [0.0, 0.5, 0.5])

    def test_error_rate_bounded(self):
        profile = OpponentProfile(mean_buzz_frac=0.4, spread=0.1, accuracy=0.8)
        rng = np.random.default_rng(11)
        for _ in range(200):
            profile.record_buzz(float(rng.random()), bool(rng.random() < 0.5))
            phi = opponent_features(profile)
            assert 0.0 <= phi[2] <= 1.0
            assert 0.0 <= phi[1] <= 1.0

    def test_identical_histories_identical_features(self):
        a = OpponentProfile(mean_buzz_frac=0.2, spread=0.0, accuracy=0.5)
        b = OpponentProfile(mean_buzz_frac=0.9, spread=0.3, accuracy=0.1)
        for p in (a, b):
            p.record_buzz(0.4, False)
            p.record_buzz(0.6, True)
        assert np.array_equal(opponent_features(a), opponent_features(b))


class TestOpponentType:
    @pytest.mark.parametrize("frac,expected", [
        (0.10, 1), (0.30, 2), (0.90, 4), (0.25, 1), (0.50, 2), (0.75, 3),
    ])
    def test_buckets(self, frac, expected):
        profile = OpponentProfile(mean_buzz_frac=0.5, spread=0.0, accuracy=1.0)
        # pin the historical mean exactly: one observation at 2*frac - 0.5
        profile.record_buzz(2 * frac - 0.5, False)
        assert abs(profile.historical_buzz_frac - frac) < 1e-12
        assert opponent_type(profile) == expected


class TestSupervisionTargets:
    def test_at_position(self):
        assert action_supervision_target(40, 40) == 1.0

    def test_halfway(self):
        assert action_supervision_target(20, 40) == 0.5

    def test_clamped_past_position(self):
        assert action_supervision_target(80, 40) == 1.0

    def test_bad_position(self):
        with pytest.raises(UsageError):
            action_supervision_target(5, 0)


class TestDqnSelfReward:
    @pytest.mark.parametrize("buzz,correct,expected", [
        (True, True, 10.0), (False, True, -10.0),
        (True, False, -15.0), (False, False, 15.0),
    ])
    def test_table(self, buzz, correct, expected):
        assert dqnself_reward(buzz, correct) == expected


def profile_values(pool):
    return [(p.mean_buzz_frac, type(p.mean_buzz_frac), p.spread, p.accuracy)
            for p in pool]


def rounded_pool(preset, rng, size):
    """The profile values of the pool `make_population` drew before it split
    a mixture by largest remainder: each bucket's share rounded, at least one
    opponent per bucket, one `rng.random()` per opponent."""
    if preset == "mixed":
        weights = np.array(qb._BUCKET_WEIGHT)
        counts = np.maximum(1, np.round(size * weights / weights.sum()).astype(int))
        buckets = [b for b, c in enumerate(counts) for _ in range(c)]
    else:
        buckets = [int(preset[-1]) - 1] * size
    values = []
    for b in buckets:
        mu = qb._BUCKET_MU[b] + qb._MU_JITTER * (2.0 * rng.random() - 1.0)
        mu = min(1.0, max(0.01, mu))
        values.append((mu, float, qb._BUCKET_SPREAD, qb._BUCKET_RHO[b]))
    return values


class TestPopulations:
    def test_presets_exist(self):
        rng = np.random.default_rng(12)
        for preset in qb.POPULATION_PRESETS:
            pop = make_population(preset, rng)
            assert len(pop) >= 4

    def test_mixture_weighted_toward_type2(self):
        pop = make_population("mixed", np.random.default_rng(13), size=40)
        type2 = sum(1 for p in pop if 0.25 < p.mean_buzz_frac <= 0.5)
        assert type2 > len(pop) / 2

    @pytest.mark.parametrize("preset", qb.POPULATION_PRESETS)
    def test_pool_has_size_opponents(self, preset):
        # where the rounding rule's pool had the right size, it is kept
        for size in range(1, 101):
            pool = profile_values(make_population(preset, np.random.default_rng([size, 2]), size))
            assert len(pool) == size
            before = rounded_pool(preset, np.random.default_rng([size, 2]), size)
            if len(before) == size:
                assert pool == before

    @pytest.mark.parametrize("size,counts", [(1, [0, 1, 0, 0]), (10, [2, 7, 0, 1]),
                                             (40, [8, 29, 1, 2])])
    def test_mixture_splits_by_largest_remainder(self, size, counts):
        # size 10: quotas 1.94, 7.26, 0.28 and 0.52; the two seats left after
        # the whole parts go to the remainders 0.94 and 0.52
        pool = make_population("mixed", np.random.default_rng(0), size=size)
        assert [sum(p.accuracy == rho for p in pool)
                for rho in qb._BUCKET_RHO] == counts

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            make_population("type9", np.random.default_rng(0))

    @pytest.mark.parametrize("preset", ["mixed", "type1"])
    def test_empty_pool_rejected(self, preset):
        # the mixture would otherwise still put one opponent in every bucket
        with pytest.raises(ConfigurationError, match="size must be >= 1"):
            make_population(preset, np.random.default_rng(0), size=0)

