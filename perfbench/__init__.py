"""Benchmark for the pqe engine: seeded workloads, timed solves, reference checks and layer tracing."""
