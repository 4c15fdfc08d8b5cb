from dataclasses import fields

import pytest

from dron.agents import Agent, AgentSpec, quiz_agent_spec, soccer_agent_spec
from dron.checkpoint import Checkpoint, save_checkpoint
from dron.config import ExperimentConfig, agent_spec_for, env_params_for, parse_config
from dron.errors import ConfigurationError
from dron.quizbowl import QuizConfig


class TestDefaults:
    def test_empty_file_gives_paper_defaults(self):
        cfg = parse_config("")
        assert cfg.gamma == 0.9
        assert cfg.learning_rate == 0.0005
        assert cfg.batch_size == 64
        assert cfg.epsilon_start == 0.3
        assert cfg.epsilon_end == 0.1
        assert cfg.epsilon_decay_steps == 500_000
        assert cfg.epochs == 50

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nepochs = 3  # trailing\n")
        assert cfg.epochs == 3

    def test_quiz_grad_clip_default(self):
        assert parse_config("environment=quizbowl").effective_grad_clip == 1.0
        assert parse_config("").effective_grad_clip is None
        assert parse_config("environment=quizbowl\ngrad_clip=0.5").effective_grad_clip == 0.5


class TestQuizKeys:
    """The quiz game's settings are written once, as `QuizConfig`'s fields:
    the config's keys of the same names take their defaults from it, and a
    run's environment keys and a checkpoint's ``env.*`` lines follow its
    field order."""

    NAMES = [f.name for f in fields(QuizConfig)]

    def test_fields_are_config_keys_in_order_with_equal_defaults(self):
        def named(cls):
            return [(f.name, f.default, type(f.default)) for f in fields(cls)
                    if f.name in self.NAMES]

        assert len(self.NAMES) == 6
        assert named(ExperimentConfig) == named(QuizConfig)

    def test_env_params_and_checkpoint_lines_follow_the_field_order(self, tmp_path):
        config = ExperimentConfig(environment="quizbowl", vocab=7, opponent_pool=3)
        env_params = env_params_for(config)
        assert list(env_params) == self.NAMES
        assert QuizConfig(**env_params) == QuizConfig(vocab=7, opponent_pool=3)
        agent = Agent(agent_spec_for(config), seed=0)
        path = tmp_path / "quiz.ckpt"
        save_checkpoint(Checkpoint(agent_spec=agent.spec, params=agent.params,
                                   environment="quizbowl", env_params=env_params), str(path))
        lines = [line.split()[0] for line in path.read_text().splitlines()
                 if line.startswith("env.")]
        assert lines == [f"env.{name}" for name in self.NAMES]


class TestAgentKeys:
    """The agent's variant is written once, as `AgentSpec`'s fields: the
    config's keys of the same names take their defaults from it, and the
    spec helpers pass them through to it."""

    NAMES = ["experts", "multitask", "multitask_weight"]

    def test_fields_are_config_keys_with_equal_defaults(self):
        def named(cls):
            return [(f.name, f.default, type(f.default)) for f in fields(cls)
                    if f.name in self.NAMES]

        assert [name for name, _, _ in named(AgentSpec)] == self.NAMES
        assert named(ExperimentConfig) == named(AgentSpec)

    @pytest.mark.parametrize("helper", [soccer_agent_spec, quiz_agent_spec])
    def test_helpers_take_the_spec_defaults(self, helper):
        spec = helper("dron_moe")
        assert [getattr(spec, name) for name in self.NAMES] == [
            getattr(AgentSpec, name) for name in self.NAMES]


class TestValues:
    def test_gamma_zero_accepted(self):
        assert parse_config("gamma=0").gamma == 0.0

    def test_gamma_out_of_range(self):
        with pytest.raises(ConfigurationError, match="gamma"):
            parse_config("gamma=1.5")

    def test_unknown_key_named_with_line(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_config("epochs=2\nlearningrate=1\n")

    def test_malformed_value_named(self):
        with pytest.raises(ConfigurationError, match="batch_size"):
            parse_config("batch_size=lots")

    def test_learning_rate_must_be_positive(self):
        # a negative rate would train by gradient ascent
        for raw in ("-1", "0"):
            with pytest.raises(ConfigurationError, match="learning_rate"):
                parse_config(f"learning_rate={raw}")

    def test_replay_min_within_capacity(self):
        with pytest.raises(ConfigurationError, match="replay_min"):
            parse_config("replay_capacity=100\nreplay_min=101")
        assert parse_config("replay_capacity=100\nreplay_min=100").replay_min == 100

    def test_seed_list(self):
        assert parse_config("seeds=3, 5, 8").seeds == (3, 5, 8)

    def test_repeated_seeds_named(self):
        # one run counted twice would give a confidence interval it has not earned
        with pytest.raises(ConfigurationError,
                           match=r"^line 1: seeds must be distinct, got 1, 5 more than once$"):
            parse_config("seeds=5, 1, 8, 1, 5")

    def test_opponent_env_cross_check(self):
        with pytest.raises(ConfigurationError):
            parse_config("environment=soccer\nopponent=type2")
        assert parse_config("environment=quizbowl\nopponent=type2").opponent == "type2"

    def test_self_play_requires_dqn(self):
        with pytest.raises(ConfigurationError):
            parse_config("environment=quizbowl\nopponent=self\nagent=dron_moe")

    def test_grad_clip_none(self):
        assert parse_config("grad_clip=none").grad_clip is None
        assert parse_config("grad_clip=2.0").grad_clip == 2.0


# (config text, the key at fault, the line named) for values that parse but
# that a rule refuses; each used to pass parsing and fail (or, for
# opponent_pool, silently use a pool of 4) only once training had started.
# tests/test_checkpoint.py replays the quiz rows as checkpoint env.* lines.
BAD_VALUES = [
    pytest.param("batch_size=0", "batch_size", 1, id="batch_size"),
    pytest.param("target_sync=0", "target_sync", 1, id="target_sync"),
    pytest.param("replay_capacity=0", "replay_capacity", 1, id="replay_capacity"),
    pytest.param("epochs=2\nreplay_min=-3", "replay_min must be >= 0", 2,
                 id="replay_min_negative"),
    pytest.param("environment=quizbowl\nopponent_pool=0", "opponent_pool", 2, id="opponent_pool"),
    pytest.param("environment=quizbowl\nvocab=1", "vocab", 2, id="vocab"),
    pytest.param("environment=quizbowl\nquestion_min=0", "question_min", 2, id="question_min"),
    pytest.param("environment=quizbowl\nquestion_min=90\nquestion_max=80",
                 "question_max", 3, id="question_order"),
    pytest.param("epochs=2\nagent=dqnx", "unknown agent kind 'dqnx'", 2, id="agent"),
    pytest.param("epochs=2\nmultitask=bogus", "unknown multitask mode 'bogus'", 2,
                 id="multitask"),
    pytest.param("agent=dron_moe\nexperts=0", "experts", 2, id="experts"),
    pytest.param("agent=dqn\nmultitask=type", "multitask", 2, id="dqn_multitask"),
    pytest.param("epochs=2\ngrad_clip=-1", "grad_clip", 2, id="grad_clip_negative"),
    pytest.param("grad_clip=0", "grad_clip", 1, id="grad_clip_zero"),
    pytest.param("agent=dron_moe\nmultitask_weight=-1",
                 "multitask_weight", 2, id="multitask_weight"),
    pytest.param("agent=dron_moe\nmultitask_weight=inf",
                 "multitask_weight", 2, id="multitask_weight_inf"),
    pytest.param("epochs=2\nlearning_rate=nan", "learning_rate", 2, id="learning_rate_nan"),
    pytest.param("learning_rate=inf", "learning_rate", 1, id="learning_rate_inf"),
    pytest.param("epochs=2\nseeds=3,3,3", "seeds", 2, id="seeds_repeated"),
    pytest.param("epochs=2\nseeds=1,-1", "seeds", 2, id="seeds_negative"),
    pytest.param("epsilon_decay_steps=0", "epsilon_decay_steps", 1, id="epsilon_decay_steps"),
    pytest.param("epochs=2\nepsilon_start=1.5", "epsilon_start", 2, id="epsilon_start"),
    pytest.param("epsilon_start=0.1\nepsilon_end=0.3", "epsilon_end", 2, id="epsilon_order"),
    pytest.param("environment=quizbowl\nbelief_alpha=-5",
                 "belief_alpha", 2, id="belief_alpha_negative"),
    pytest.param("environment=quizbowl\nbelief_kappa=-1",
                 "belief_kappa", 2, id="belief_kappa_negative"),
    pytest.param("belief_kappa=0\nenvironment=quizbowl",
                 "belief_kappa", 1, id="belief_kappa_zero"),
    pytest.param("environment=quizbowl\nbelief_kappa=inf",
                 "belief_kappa", 2, id="belief_kappa_inf"),
]


class TestParseTimeRules:
    @pytest.mark.parametrize("text,key,line", BAD_VALUES)
    def test_rejected_naming_the_key(self, text, key, line):
        with pytest.raises(ConfigurationError, match=rf"^line {line}: .*{key}"):
            parse_config(text)

    def test_line_of_the_offending_key(self):
        with pytest.raises(ConfigurationError,
                           match=r"^line 2: batch_size must be >= 1, got 0$"):
            parse_config("epochs=2\nbatch_size=0")

    @pytest.mark.parametrize("text,line", [
        ("replay_capacity=10\nepochs=2\nreplay_min=50", 3),
        ("replay_min=50\nepochs=2\nreplay_capacity=10", 3),
        ("learning_rate=0.1\nenvironment=quizbowl\nvocab=3\nopponent=offensive", 4),
        ("opponent=offensive\nvocab=3\nenvironment=quizbowl", 3),
    ])
    def test_two_key_rule_names_the_later_key(self, text, line):
        with pytest.raises(ConfigurationError, match=rf"^line {line}: "):
            parse_config(text)

    def test_key_left_at_default_has_no_line(self):
        # replay_min keeps its default of 1000, so only replay_capacity's line counts
        with pytest.raises(ConfigurationError, match=r"^line 2: replay_min \(1000\)"):
            parse_config("epochs=2\nreplay_capacity=10\nbatch_size=4")
        with pytest.raises(ConfigurationError, match=r"^batch_size must"):
            ExperimentConfig(batch_size=0)

    def test_repeated_key_names_its_last_line(self):
        with pytest.raises(ConfigurationError, match=r"^line 3: "):
            parse_config("batch_size=8\nepochs=2\nbatch_size=0")

    def test_boundaries_accepted(self):
        cfg = parse_config("environment=quizbowl\nbatch_size=1\ntarget_sync=1\n"
                           "replay_capacity=1\nreplay_min=1\nopponent_pool=1\nvocab=2\n"
                           "question_min=1\nquestion_max=1\nagent=dron_moe\nexperts=1\n"
                           "multitask=type\nbelief_alpha=0")
        assert (cfg.opponent_pool, cfg.vocab, cfg.question_max, cfg.experts) == (1, 2, 1, 1)
        assert cfg.belief_alpha == 0.0


class TestConstruction:
    def test_invalid_direct_construction(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(seeds=())
