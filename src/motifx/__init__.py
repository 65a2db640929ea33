"""Temporal-motif sampling, canonical coding, and motif-level explanations for link predictors."""

__version__ = "0.1.0"

from .graph import (Event, EventSubset, TemporalGraph, computational_graph,
                    generate_synthetic, ingest_csv, neighbor_events,
                    query_event)
from .motifs import (MotifCensus, MotifInstance, census, code_alphabet,
                     empirical_class_probs, enumerate_motifs, motif_code,
                     null_class_probs, null_model, sample_motif_batch,
                     total_variation)

__all__ = [
    "__version__",
    "Event", "EventSubset", "TemporalGraph", "computational_graph",
    "generate_synthetic", "ingest_csv", "neighbor_events", "query_event",
    "MotifCensus", "MotifInstance", "census", "code_alphabet",
    "empirical_class_probs", "enumerate_motifs", "motif_code",
    "null_class_probs", "null_model", "sample_motif_batch", "total_variation",
]
