"""The repro benchmark (see bench/README.md); run it with ``python bench/run.py``."""
