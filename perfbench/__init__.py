"""Seeded time-to-verdict benchmark for okounkov-lab; see run.py."""
