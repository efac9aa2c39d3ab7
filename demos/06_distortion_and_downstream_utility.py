"""How much does reweighting distort the data, and what does it cost?

A fresh gradient-penalty critic estimates the transport distance between the
original and reweighted empirical distributions; a weighted logistic
regression measures downstream accuracy on a held-out split.  The crude
alternative of deleting one sensitive group is the comparison point.
"""

import numpy as np

from fairweigh import (
    SplitPlan,
    StructuredModel,
    TrainConfig,
    downstream_accuracy,
    estimate_effect,
    split,
    statistical_parity,
    total_path_set,
    train,
    wasserstein_estimate,
)
from fairweigh.synth import benchmark_scm, generate

scm = benchmark_scm(seed=0)
ds = generate(scm, 8000)
part = split(ds, SplitPlan(seed=1))
train_ds, encoder = part.train, part.encoder
x = encoder.transform(train_ds)

config = TrainConfig(
    epochs=20, batch_size=640, eta0=0.01, seed=1, critic_steps_at_weight_solve=50
)
mode = total_path_set(scm.graph)
model = StructuredModel(scm.graph, encoder, mode, seed=config.seed)
model, weights, _ = train(model, train_ds, config)
w = weights.values

crude = np.where(train_ds.column("s").values == "1", 0.0, 1.0)
crude *= train_ds.m / crude.sum()

print("distance of the reweighted training data from the original")
d_ours = wasserstein_estimate(x, w, seed=0, steps=1200)
d_crude = wasserstein_estimate(x, crude, seed=0, steps=1200)
print(f"  adversarial weights: {d_ours:.3f}")
print(f"  one group zeroed:    {d_crude:.3f}")

print("\neffect and observational parity on the training split")
print(f"  effect, uniform weights:   {estimate_effect(model, train_ds, x=x):+.4f}")
print(f"  effect, solved weights:    {estimate_effect(model, train_ds, x=x, weights=w):+.4f}")
print(f"  parity, uniform weights:   {statistical_parity(train_ds, 's', 'y'):+.4f}")
print(f"  parity, solved weights:    {statistical_parity(train_ds, 's', 'y', w):+.4f}")
print("(statistical parity is observational; a causally fair reweighting")
print("need not drive it to zero)")

print("\nheld-out accuracy of a weighted logistic regression")
for label, wts in (("uniform", None), ("solved", w), ("group zeroed", crude)):
    accuracy = downstream_accuracy(part, "y", wts)
    print(f"  {label:13s} {accuracy:.4f}")
