"""The repository benchmark: named workloads timed from outside ``src/``."""
