import pytest

from dron.config import ExperimentConfig, parse_config
from dron.errors import ConfigurationError


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


class TestParseTimeRules:
    # each of these used to pass parsing and fail (or, for opponent_pool,
    # silently use a pool of 4) only once training had started
    @pytest.mark.parametrize("text,key,line", [
        ("batch_size=0", "batch_size", 1),
        ("target_sync=0", "target_sync", 1),
        ("replay_capacity=0", "replay_capacity", 1),
        ("environment=quizbowl\nopponent_pool=0", "opponent_pool", 2),
        ("environment=quizbowl\nvocab=1", "vocab", 2),
        ("environment=quizbowl\nquestion_min=0", "question_min", 2),
        ("environment=quizbowl\nquestion_min=90\nquestion_max=80", "question_max", 3),
        ("agent=dron_moe\nexperts=0", "experts", 2),
        ("agent=dqn\nmultitask=type", "multitask", 2),
    ], ids=["batch_size", "target_sync", "replay_capacity", "opponent_pool", "vocab",
            "question_min", "question_order", "experts", "dqn_multitask"])
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
                           "multitask=type")
        assert (cfg.opponent_pool, cfg.vocab, cfg.question_max, cfg.experts) == (1, 2, 1, 1)


class TestConstruction:
    def test_invalid_direct_construction(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(seeds=())
