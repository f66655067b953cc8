"""Train the relevance (choice-based) agent on the trivial game.

The agent encodes the four observation channels and each detected valid
action with GRUs, scores (observation, action) pairs, and picks with a
softmax. A few thousand environment steps reach ~90% of max score; the
learning curve CSV lands next to this script.
"""

import os

from textquest import load_bundled
from textquest.agents import TrainConfig, train, write_learning_curve

game = load_bundled("mailhouse")
cfg = TrainConfig(agent="drrn", max_env_steps=6000, early_stop_score=9.0,
                  max_seconds=120)
result = train(game, cfg, seed=1)

print(f"episodes:        {len(result.episodes)}")
print(f"env steps:       {result.env_steps}")
print(f"updates:         {result.updates}")
print(f"rolling-100 mean {result.rolling_mean():.2f} / {game.max_score}")
print(f"target reached:  step {result.reached_step}")
print(f"wall time:       {result.wall_seconds:.1f}s")

out = os.path.join(os.path.dirname(__file__), "drrn_curve.csv")
write_learning_curve(out, result)
print(f"curve -> {out}")
