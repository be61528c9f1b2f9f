"""Temporal network embeddings driven jointly by event-level dynamics and a
network-scale growth constraint."""

from .graph import (LabelTable, MacroSeries, ParseError, TemporalNetwork,
                    compute_macro_series, parse_edge_list, parse_labels,
                    snapshot_arrays, split_by_time, write_edge_list)
from .macro import (MacroParams, edge_affinity, fit_params, forecast_scale,
                    linear_node_forecast, macro_loss)
from .micro import AttentionParams, NegativeTable
from .micrograd import EventBatch, batch_loss_and_grads
from .train import (GradCheckReport, LossTrace, ModelState, TrainConfig,
                    TrainData, fit, gradient_check, init_state,
                    load_checkpoint, sample_batch, save_checkpoint, step)

__version__ = "0.1.0"

__all__ = [
    "AttentionParams", "EventBatch", "GradCheckReport", "LabelTable",
    "LossTrace", "MacroParams", "MacroSeries", "ModelState", "NegativeTable",
    "ParseError", "TemporalNetwork", "TrainConfig", "TrainData",
    "batch_loss_and_grads", "compute_macro_series", "edge_affinity", "fit",
    "fit_params", "forecast_scale", "gradient_check", "init_state",
    "linear_node_forecast", "load_checkpoint", "macro_loss",
    "parse_edge_list", "parse_labels", "sample_batch",
    "save_checkpoint", "snapshot_arrays", "split_by_time", "step",
    "write_edge_list",
]
