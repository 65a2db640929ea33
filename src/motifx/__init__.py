"""Temporal-motif sampling, canonical coding, and motif-level explanations for link predictors."""

__version__ = "0.1.0"

from .graph import (Event, TemporalGraph, computational_graph, generate_synthetic,
                    ingest_csv, neighbor_events, query_event)
from .motifs import (MotifCensus, census, code_alphabet, empirical_class_probs,
                     enumerate_motifs, graph_census, motif_codes, null_class_probs,
                     null_model, sample_id_block, total_variation)

__all__ = [
    "__version__",
    "Event", "TemporalGraph", "computational_graph", "generate_synthetic",
    "ingest_csv", "neighbor_events", "query_event",
    "MotifCensus", "census", "code_alphabet", "empirical_class_probs",
    "enumerate_motifs", "graph_census", "motif_codes", "null_class_probs",
    "null_model", "sample_id_block", "total_variation",
]
