"""Learning test: one epoch of training on the benchmark's tiny inputs
(``bench/workloads.TINY``: 100 nodes, 600 events over 12 epochs, dim 8,
B = 64, at epsilon 0 and 0.3) places the training edges closer than random
non-edges, by ``bench/run.py::edge_auc``.

Measured after one epoch at rate 0.2, input seeds 1-3 (x86, NumPy 2.4),
under clipped SGD on every group, Adagrad on the embeddings' rows with
clipped SGD on the attention groups, and Adagrad by leading index on every
group, the rule ``train.step`` runs:

    input           clipped SGD           Adagrad on rows       Adagrad on all
    epsilon = 0     0.275 0.200 0.346     0.748 0.724 0.804     0.749 0.728 0.804
    epsilon = 0.3   0.228 0.187 0.263     0.873 0.889 0.914     0.872 0.888 0.914

Under clipped SGD the embeddings sit below chance, so THRESHOLD lies
between that rule and both Adagrad rules on every seed.
"""

import pytest

from m2dne.graph import parse_edge_list
from m2dne.train import TrainConfig, fit

RATE = 0.2
THRESHOLD = 0.6


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload, epsilon", [("fit-micro", 0.0),
                                               ("fit-joint", 0.3)])
def test_one_epoch_fit_separates_edges(bench_run, tmp_path, workload,
                                       epsilon, seed):
    wl = bench_run.TINY[workload]
    net = parse_edge_list(bench_run.write_inputs(wl.shape, seed,
                                                 tmp_path)["edges"])
    config = TrainConfig(**{**wl.train_config(), "learning_rate": RATE})
    assert (config.epsilon, config.epochs, config.dim, config.batch_size,
            len(net)) == (epsilon, 1, 8, 64, 600)
    state, _ = fit(net, config)
    assert bench_run.edge_auc(state.embeddings, net, 1) > THRESHOLD
