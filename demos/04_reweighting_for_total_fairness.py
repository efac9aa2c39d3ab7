"""End-to-end adversarial reweighting on the synthetic benchmark.

One network view fits each variable from its observed parents; the
interventional view clamps the sensitive variable and cascades predictions.
A gradient-penalty critic scores the gap between the two interventional
outcome distributions, and the weight solve shifts mass onto samples whose
outcome the intervention barely moves.
"""

import numpy as np

from fairweigh import (
    Encoder,
    StructuredModel,
    TrainConfig,
    estimate_effect,
    total_path_set,
    train,
)
from fairweigh.data import export_weights
from fairweigh.synth import benchmark_scm, generate, oracle_effect

scm = benchmark_scm(seed=0)
ds = generate(scm, 8000)
encoder = Encoder().fit(ds)
x = encoder.transform(ds)
mode = total_path_set(scm.graph)

truth, _ = oracle_effect(scm, mode, n=200_000, seed=1)
print(f"oracle total effect of the generating process: {truth:+.4f}")

config = TrainConfig(
    epochs=20, batch_size=640, eta0=0.01, seed=1, critic_steps_at_weight_solve=50
)
model = StructuredModel(scm.graph, encoder, mode, seed=config.seed)
model, weights, log = train(model, ds, config)

print("\nepoch trace (fit loss, weighted effect estimate):")
for record in log[::4] + [log[-1]]:
    print(f"  epoch {record.epoch:2d}: loss {record.fit_loss:.4f} "
          f"effect {record.effect:+.4f}")

before = estimate_effect(model, ds, x=x)
after = estimate_effect(model, ds, x=x, weights=weights.values)
print(f"\nuniform-weight estimate through these networks: {before:+.4f}")
print("  (the weighted refit skews the fit on the zero-weight rows, so this")
print("   reads higher than the oracle; an unweighted audit run recovers it)")
print(f"effect under the solved weights:                {after:+.4f}")
print(f"weights: min {weights.values.min():.2f}, max {weights.values.max():.2f}, "
      f"{np.mean(weights.values == 0):.0%} zeroed, "
      f"deviation/m {weights.deviation() / ds.m:.3f} (cap {config.balance})")

export_weights(ds, weights.values, "/tmp/benchmark_weights.csv")
print("\nper-sample weights written to /tmp/benchmark_weights.csv")
print("(rows sorted by weight; the top rows are the samples least moved by")
print("the intervention, the bottom rows the most moved)")
