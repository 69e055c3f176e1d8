"""End-to-end and per-layer benchmark of the LIRA server (see run.py)."""
