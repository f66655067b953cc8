"""Train the template (parser-based) agent on the trivial game.

Three heads score templates and the two blank positions independently;
commands are assembled from the per-head picks, so the agent can and
does type invalid things early on. Valid-action supervision (a BCE term
mixed equally with TD) steers the heads toward commands that parse.
"""

from textquest import load_bundled
from textquest.agents import TrainConfig, train

game = load_bundled("mailhouse")
cfg = TrainConfig(agent="tdqn", max_env_steps=20_000, early_stop_score=5.0,
                  max_seconds=180)
result = train(game, cfg, seed=1)

print(f"episodes:        {len(result.episodes)}")
print(f"env steps:       {result.env_steps} (invalid commands count here,")
print( "                 but never against the 100-valid-step episode cap)")
print(f"updates:         {result.updates}")
print(f"rolling-100 mean {result.rolling_mean():.2f} / {game.max_score}")
print(f"target reached:  step {result.reached_step}")
print(f"wall time:       {result.wall_seconds:.1f}s")
