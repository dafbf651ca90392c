"""Benchmark for irreducia: four seeded workloads timed against the public
API, with correctness gates and an optional traced run that times the calls
into each package module from outside the package.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>``.
"""
