"""Workload generators: synthetic corpora and attention instances."""

from repro.workloads.corpus import (
    markov_corpus,
    mixed_corpus,
    train_eval_split,
)
from repro.workloads.traces import (
    failover_trace,
    shared_prefix_trace,
    sustained_overload_trace,
)
from repro.workloads.scores import (
    HEAD_ARCHETYPES,
    InstanceParams,
    fig3_instances,
    sample_workload,
    synthetic_instance,
)

__all__ = [
    "HEAD_ARCHETYPES",
    "failover_trace",
    "sustained_overload_trace",
    "InstanceParams",
    "fig3_instances",
    "markov_corpus",
    "mixed_corpus",
    "sample_workload",
    "shared_prefix_trace",
    "synthetic_instance",
    "train_eval_split",
]
