"""Repository benchmark: seeded workloads driven through the public API of ``repro``."""
