"""End-to-end and per-layer benchmark of specsense; entry point ``run.py``."""
