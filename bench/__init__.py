"""Benchmark of the mvhomog laboratory: three workloads, timed from outside.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload repeatedly, each repeat in a fresh process, and prints a
JSON result as its last line.  See ``run.py`` for the metrics.
"""
