"""Workload generators: synthetic corpora and attention instances."""

_LAZY = {
    "HEAD_ARCHETYPES": "repro.workloads.scores",
    "failover_trace": "repro.workloads.traces",
    "sustained_overload_trace": "repro.workloads.traces",
    "InstanceParams": "repro.workloads.scores",
    "fig3_instances": "repro.workloads.scores",
    "markov_corpus": "repro.workloads.corpus",
    "mixed_corpus": "repro.workloads.corpus",
    "sample_workload": "repro.workloads.scores",
    "shared_prefix_trace": "repro.workloads.traces",
    "synthetic_instance": "repro.workloads.scores",
    "train_eval_split": "repro.workloads.corpus",
}
__all__ = list(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
