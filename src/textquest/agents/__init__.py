"""Learning agents: numpy value networks, replay, and the training harness."""

from .models import (ModelConfig, TokenChannels, drrn_init, drrn_loss,
                     drrn_q_pairs, drrn_q_values, tdqn_forward, tdqn_init,
                     tdqn_loss)
from .nn import Adam, Params
from .policy import (argmax_tie_break, epsilon_greedy, linear_anneal,
                     softmax, softmax_select)
from .replay import PrioritizedReplay
from .tokenizer import PAD, UNK, Tokenizer
from .training import (AGENT_KINDS, CANONICAL_ACTIONS, Checkpoint,
                       CheckpointError, EpisodeRecord, TrainConfig,
                       TrainResult, evaluate, load_checkpoint,
                       result_from_checkpoint, run_random, save_checkpoint,
                       train, write_learning_curve)

__all__ = [
    "AGENT_KINDS", "Adam", "CANONICAL_ACTIONS", "Checkpoint",
    "CheckpointError", "EpisodeRecord", "ModelConfig", "PAD",
    "Params", "PrioritizedReplay", "TokenChannels", "TrainConfig",
    "TrainResult", "Tokenizer", "UNK", "argmax_tie_break", "drrn_init",
    "drrn_loss", "drrn_q_pairs", "drrn_q_values", "epsilon_greedy",
    "evaluate", "linear_anneal", "load_checkpoint", "result_from_checkpoint",
    "run_random", "save_checkpoint", "softmax", "softmax_select",
    "tdqn_forward", "tdqn_init", "tdqn_loss", "train", "write_learning_curve",
]
