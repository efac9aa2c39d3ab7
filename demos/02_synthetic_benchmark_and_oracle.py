"""Generate data from the benchmark structural model and query its oracle.

Because every mechanism is known, interventional quantities can be computed
by brute force: draw the exogenous noise once, push it through the true
functions under each clamp of the sensitive variable, and average the
outcome probabilities.  One ``oracle_effects`` call answers several
contrasts from one draw.  These numbers are the targets the learned pipeline
is judged against.
"""

from fairweigh import (
    counterfactual_path_set,
    generate,
    indirect_path_set,
    total_path_set,
)
from fairweigh.synth import benchmark_scm, oracle_effects

scm = benchmark_scm(seed=0)
print("benchmark graph:", scm.graph)

ds = generate(scm, 5000)
share = (ds.column("s").values == "1").mean()
rate = (ds.column("y").values == "1").mean()
print(f"sample of {ds.m} rows: P(s=1) = {share:.3f}, P(y=1) = {rate:.3f}")

contrasts = {
    "total effect": total_path_set(scm.graph),
    "indirect (mediated) effect": indirect_path_set(scm.graph),
    "effect within the x2=1 group": counterfactual_path_set(scm.graph, [("x2", "1")]),
}
effects = oracle_effects(scm, list(contrasts.values()), n=300_000, seed=1)
for label, (estimate, stderr) in zip(contrasts, effects):
    print(f"{label:30s} {estimate:+.4f}  (se {stderr:.5f})")

print("\nThe direct and mediated routes add up only approximately: the")
print("outcome is logistic, so route contributions interact.")
