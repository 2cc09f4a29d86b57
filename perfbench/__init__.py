"""Repository benchmark: ``python3 perfbench/run.py --help``."""
