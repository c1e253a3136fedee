"""Benchmark for amhastar: seeded workloads, end-to-end metrics and an outside-in tracer."""
