"""The repo benchmark (see README.md and ../../BENCHMARK.json)."""
