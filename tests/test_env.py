"""Environment layer: handicap gating, observations, probing, transcripts."""

import pytest

from textquest.engine import init_state
from textquest.env import (CapabilityError, Environment, EpisodeDoneError,
                           Handicaps, NO_HANDICAPS, augmented_text,
                           format_transcript_block, verify_walkthrough,
                           world_changed, world_changed_exact)
from textquest.gamedefs import load_bundled, parse_game
from textquest.grammar import ParseKind
from textquest.world import SnapshotError


@pytest.fixture
def env(tinybox):
    e = Environment(tinybox)
    e.reset(seed=0)
    return e


# -- episode control -----------------------------------------------------------------


def test_reset_returns_obs_and_info(tinybox):
    env = Environment(tinybox)
    obs, info = env.reset(seed=3)
    assert obs.narrative == tinybox.intro_text
    assert obs.prev_action == ""
    assert info["seed"] == 3 and info["title"] == "tinybox"
    assert "valid_action_detection" in info["handicaps"]


def test_interaction_before_reset_raises(tinybox):
    env = Environment(tinybox)
    with pytest.raises(RuntimeError):
        env.step("look")
    with pytest.raises(RuntimeError):
        _ = env.score


def test_step_result_fields(env):
    result = env.step("open box")
    assert result.parse_outcome is ParseKind.RESOLVED
    assert result.world_changed and result.reward == 0
    assert result.moves == 1 and result.score == 0 and not result.done


def test_invalid_commands_do_not_consume_moves(env):
    for text in ("xyzzy", "take zeppelin", "close box"):
        result = env.step(text)
        assert result.moves == 0
        assert not result.world_changed
    assert env.moves == 0


def test_reward_is_score_delta_and_done_latches(env):
    env.step("open box")
    result = env.step("take egg")
    assert result.reward == 2 and result.score == 2 and result.done
    with pytest.raises(EpisodeDoneError):
        env.step("look")


def test_reset_clears_done(env):
    env.step("open box")
    env.step("take egg")
    obs, _ = env.reset(seed=0)
    assert not env.done and env.score == 0
    assert obs.prev_action == ""


# -- handicap gating -----------------------------------------------------------------


def test_fixed_seed_gating(tinybox):
    env = Environment(tinybox, NO_HANDICAPS)
    with pytest.raises(CapabilityError):
        env.reset(seed=1)
    obs, info = env.reset()  # OS-entropy seed is always allowed
    assert isinstance(info["seed"], int)


def test_load_save_gating(tinybox):
    env = Environment(tinybox, NO_HANDICAPS)
    env.reset()
    with pytest.raises(CapabilityError):
        env.save()
    with pytest.raises(CapabilityError):
        env.gather_augmented_observation()


def test_templates_vocab_gating(tinybox):
    env = Environment(tinybox, NO_HANDICAPS)
    env.reset()
    with pytest.raises(CapabilityError):
        env.templates()
    with pytest.raises(CapabilityError):
        env.vocabulary()
    full = Environment(tinybox)
    full.reset(seed=0)
    assert len(full.templates()) == 8
    assert "box" in full.vocabulary()


def test_valid_action_detection_gating(tinybox):
    env = Environment(tinybox, NO_HANDICAPS)
    env.reset()
    with pytest.raises(CapabilityError):
        env.identify_valid_actions()


def test_probing_requires_load_save():
    with pytest.raises(ValueError):
        Handicaps(load_save=False, valid_action_detection=True)


def test_handicap_names_reflect_flags():
    assert NO_HANDICAPS.names() == ()
    assert Handicaps().names() == (
        "fixed_seed", "load_save", "templates_vocab", "object_tree",
        "valid_action_detection")
    only_seed = Handicaps(True, False, False, False, False)
    assert only_seed.names() == ("fixed_seed",)


# -- observations --------------------------------------------------------------------


def test_observation_channels(env):
    env.step("take pebble")
    obs = env.observation()
    assert obs.narrative == "Taken."
    assert obs.prev_action == "take pebble"
    assert "pebble" in obs.inventory
    assert obs.description.startswith("Room.")
    assert obs.channels() == (obs.narrative, obs.inventory, obs.description,
                              obs.prev_action)


def test_observation_probes_do_not_touch_episode(env):
    env.step("take pebble")
    before_hash = env.state_hash()
    before_moves = env.moves
    env.observation()
    assert env.state_hash() == before_hash
    assert env.moves == before_moves
    # the next real step is unaffected
    assert env.step("drop pebble").moves == before_moves + 1


def test_observation_without_load_save_drops_channels(tinybox):
    env = Environment(tinybox, Handicaps(True, False, False, False, False))
    obs, _ = env.reset(seed=0)
    assert obs.inventory == "" and obs.description == ""
    assert augmented_text(obs) == obs.narrative


def test_augmented_text_appends_channels(env):
    obs = env.observation()
    text = augmented_text(obs)
    assert text.startswith(obs.narrative)
    assert " Inv: " in text and " Desc: " in text


def test_interactive_objects_modes(tinybox):
    tree_env = Environment(tinybox)
    tree_env.reset(seed=0)
    assert tree_env.interactive_objects() == ["box", "gong", "pebble"]
    tree_env.step("open box")
    assert "egg" in tree_env.interactive_objects()

    text_env = Environment(tinybox, Handicaps(True, True, True, False, False))
    text_env.reset(seed=0)
    # without the tree, nouns come from the narrative text
    assert text_env.interactive_objects() == ["box"]


# -- save/load -----------------------------------------------------------------------


def test_save_load_round_trip(env, tinybox):
    env.step("open box")
    snap = env.save()
    env.step("take egg")
    assert env.done
    env.load(snap)
    assert not env.done and env.score == 0 and env.moves == 1
    result = env.step("take egg")
    assert result.reward == 2


def test_load_between_environments(env, tinybox):
    env.step("open box")
    snap = env.save()
    other = Environment(tinybox)
    other.reset(seed=99)
    other.load(snap)
    assert other.state_hash() == env.state_hash()


def test_load_rejects_another_games_snapshot():
    mailhouse = Environment(load_bundled("mailhouse"))
    mailhouse.reset(seed=0)
    before = mailhouse.save()
    packrat = Environment(load_bundled("packrat"))
    packrat.reset(seed=0)
    with pytest.raises(SnapshotError, match="mailhouse"):
        mailhouse.load(packrat.save())
    assert mailhouse.save() == before
    packrat.load(packrat.save())


# -- valid-action detection ----------------------------------------------------------


def test_valid_actions_at_start(env):
    valid = env.identify_valid_actions()
    surfaces = set(valid.surfaces)
    assert "open box" in surfaces
    assert "take pebble" in surfaces
    assert "take egg" not in surfaces   # hidden inside the closed box
    assert "close box" not in surfaces  # preconditions fail
    assert "look" not in surfaces       # changes no tree state


def test_valid_actions_preserve_state_hash(env):
    before = env.state_hash()
    env.identify_valid_actions()
    assert env.state_hash() == before
    assert env.moves == 0


def test_valid_actions_gong_blind_spot(env):
    """The tree-channel detector misses pure global-counter effects."""
    valid = env.identify_valid_actions()
    assert "strike gong" not in valid.surfaces
    state = env.state
    from textquest.engine import execute
    after = execute(state, env.game, "strike gong").state
    assert not world_changed(state, after)
    assert world_changed_exact(state, after)


def test_valid_actions_dedup_collapses_equal_diffs(env):
    full = env.identify_valid_actions()
    deduped = env.identify_valid_actions(dedup=True)
    assert len(deduped) <= len(full)
    assert len(set(deduped.diff_hashes)) == len(deduped)
    assert set(deduped.diff_hashes) == set(full.diff_hashes)


def test_valid_actions_accept_explicit_objects(env):
    valid = env.identify_valid_actions(objects=["pebble"])
    assert valid.surfaces == ("take pebble",)


def test_valid_actions_cached_by_situation(tinybox):
    cache = {}
    env = Environment(tinybox, valid_action_cache=cache)
    env.reset(seed=0)
    first = env.identify_valid_actions()
    assert len(cache) == 1
    assert env.identify_valid_actions() is first  # same situation: cache hit
    env.step("take pebble")
    env.step("drop pebble")
    # score/moves differ but the situation is identical: still a hit
    assert env.identify_valid_actions() is first
    env.step("open box")
    env.identify_valid_actions()
    assert len(cache) == 2


def test_valid_actions_empty_when_done(env):
    env.step("open box")
    env.step("take egg")
    assert len(env.identify_valid_actions()) == 0


def test_world_changed_detectors_agree_on_tree_edits(env, tinybox):
    from textquest.engine import execute
    state = env.state
    after = execute(state, tinybox, "take pebble").state
    assert world_changed(state, after)
    assert world_changed_exact(state, after)
    assert not world_changed(state, state.copy())


# -- transcripts ---------------------------------------------------------------------


def test_transcript_block_layout():
    block = format_transcript_block(3, "Taken.", "take egg", 2, 2, True)
    assert block == ("Obs3: Taken.\n"
                     "Action3: take egg\n"
                     "Reward3: 2, Score 2, Done True\n")


def test_transcript_block_zero_step():
    block = format_transcript_block(0, "A bare room with a box.", "look",
                                    0, 0, False)
    assert block.splitlines() == [
        "Obs0: A bare room with a box.",
        "Action0: look",
        "Reward0: 0, Score 0, Done False",
    ]


# -- walkthrough verification ----------------------------------------------------


def test_verify_walkthrough_success(tinybox):
    report = verify_walkthrough(tinybox)
    assert report.success
    assert report.final_score == 2 and report.done
    assert report.steps == 2
    assert report.rewards == (0, 2)
    assert report.steps_per_reward == 2.0
    assert "ok" in report.summary()


def test_verify_walkthrough_flags_bad_command(tinybox_data):
    tinybox_data["walkthrough"] = ["open box", "take zeppelin", "take egg"]
    game = parse_game(tinybox_data)
    report = verify_walkthrough(game)
    assert not report.success
    assert report.first_failure == 1
    assert report.failure_command == "take zeppelin"
    assert "FAILED" in report.summary()


def test_verify_walkthrough_flags_incomplete_run(tinybox_data):
    tinybox_data["walkthrough"] = ["open box"]
    game = parse_game(tinybox_data)
    report = verify_walkthrough(game)
    assert not report.success
    assert report.first_failure is None
    assert report.final_score == 0 and not report.done


@pytest.mark.parametrize("name", ["brasskey", "cellarlight", "mailhouse",
                                  "packrat", "sparsereward"])
def test_bundled_walkthroughs_verify(name):
    report = verify_walkthrough(load_bundled(name))
    assert report.success, report.summary()
