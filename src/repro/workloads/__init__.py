"""Workload generators: synthetic corpora and attention instances."""

from repro.workloads.corpus import (
    DELIMITER_TOKEN,
    induction_corpus,
    markov_corpus,
    mixed_corpus,
    train_eval_split,
)
from repro.workloads.traces import (
    TraceSpec,
    failover_trace,
    harvest_instances,
    harvest_with_bias,
    harvested_dominance_profile,
    long_context_trace,
    shared_prefix_trace,
    sustained_overload_trace,
)
from repro.workloads.scores import (
    HEAD_ARCHETYPES,
    AttentionInstance,
    InstanceParams,
    fig3_instances,
    sample_workload,
    synthetic_instance,
)

__all__ = [
    "AttentionInstance",
    "TraceSpec",
    "harvest_instances",
    "harvest_with_bias",
    "harvested_dominance_profile",
    "DELIMITER_TOKEN",
    "HEAD_ARCHETYPES",
    "failover_trace",
    "sustained_overload_trace",
    "InstanceParams",
    "fig3_instances",
    "induction_corpus",
    "long_context_trace",
    "markov_corpus",
    "mixed_corpus",
    "sample_workload",
    "shared_prefix_trace",
    "synthetic_instance",
    "train_eval_split",
]
