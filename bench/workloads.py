"""The benchmark's workloads: input shape, training config, evaluation
config and the reason each one exists.

Every workload runs the same pipeline (set up, train, checkpoint, evaluate
with all six protocols) so every end-to-end metric exists on every workload;
the shape and the training config decide which layer dominates.
Evaluation always reads the planted checkpoint, not the freshly trained
one, so evaluation cost and quality do not move when training changes;
``edge_auc`` guards training quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from generate import Shape

# Settings shared by every workload: the model size the timings refer to and
# the evaluation protocols with the CLI defaults.
MODEL = dict(dim=64, history=5, negatives=5, batch_size=512, epochs=1,
             learning_rate=0.01, seed=42)
EVAL_SEED = 42
LINKPRED_SEEDS = (42, 43)       # link prediction alternates two fold splits
RECONSTRUCT_K = (100, 1000)
CLASSIFY_RATIOS = (0.4, 0.6, 0.8)
RECOMMEND_K = (10,)
SPLIT_FRACTION = 0.75          # recommend / linkpred split at 0.75 * T
FORECAST_FRACTION = 0.75       # forecast trains on the first 0.75 * T epochs
FORECAST_MODE = "observed"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    epsilon: float
    sample_fraction: float = 1.0     # reconstruct candidate-pair fraction
    train: dict = field(default_factory=dict)

    def train_config(self) -> dict:
        return {**MODEL, "epsilon": self.epsilon, **self.train}


# fit-micro bypasses the macro coupling (epsilon 0) and fit-joint exercises
# it. A macro step costs O(E) and an event-level step O(B), so the macro
# share of a step follows E / B: fit-joint scales the batch down with E to
# keep that share near the one at E=40k, B=512. With 63 macro steps its
# edge_auc varies with the seed far less on a sparser network: over seeds
# 1-6 the quartile spread is 5% at V=2000 against 24% at V=1200. The layer
# shares in the `why` strings are from traced runs (seed 1) on a 2-core x86
# sandbox.
WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="fit-micro",
        why=("epsilon=0, V=1200 E=4000 T=100 B=512: event-level loss and "
             "gradients are 80% of fit and negative draws 14%; macro "
             "coupling and growth refit bypassed"),
        shape=Shape(nodes=1200, events=4000, epochs=100, communities=12),
        epsilon=0.0, sample_fraction=0.1),
    Workload(
        name="fit-joint",
        why=("epsilon=0.3, V=2000 E=4000 T=100 B=64: macro coupling is 25% "
             "of fit (36% of a step), growth refit 29%, event-level loss and "
             "gradients 35%"),
        shape=Shape(nodes=2000, events=4000, epochs=100, communities=12),
        epsilon=0.3, sample_fraction=0.1, train={"batch_size": 64}),
)}

# A few-second version of every workload for the benchmark's self-tests.
TINY = {
    name: Workload(name=wl.name, why=wl.why,
                   shape=Shape(nodes=100, events=600, epochs=12,
                               communities=wl.shape.communities // 2),
                   epsilon=wl.epsilon, train={"dim": 8, "batch_size": 64})
    for name, wl in WORKLOADS.items()
}
