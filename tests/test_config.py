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
    @pytest.mark.parametrize("text,key", [
        ("batch_size=0", "batch_size"),
        ("target_sync=0", "target_sync"),
        ("replay_capacity=0", "replay_capacity"),
        ("environment=quizbowl\nopponent_pool=0", "opponent_pool"),
        ("environment=quizbowl\nvocab=1", "vocab"),
        ("environment=quizbowl\nquestion_min=0", "question_min"),
        ("environment=quizbowl\nquestion_min=90\nquestion_max=80", "question_max"),
        ("agent=dron_moe\nexperts=0", "experts"),
        ("agent=dqn\nmultitask=type", "multitask"),
    ], ids=["batch_size", "target_sync", "replay_capacity", "opponent_pool", "vocab",
            "question_min", "question_order", "experts", "dqn_multitask"])
    def test_rejected_naming_the_key(self, text, key):
        with pytest.raises(ConfigurationError, match=key):
            parse_config(text)

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
