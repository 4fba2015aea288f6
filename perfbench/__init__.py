"""CDC benchmark for chomper_ray: seeded inputs, an independent oracle,
three workloads and a traced mode. Entry point: ``perfbench/run.py``."""
