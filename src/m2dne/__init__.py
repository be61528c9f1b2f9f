"""Temporal network embeddings driven jointly by event-level dynamics and a
network-scale growth constraint."""

__version__ = "0.1.0"
