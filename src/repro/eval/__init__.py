"""Evaluation harness: memory models, perplexity, experiment drivers."""
