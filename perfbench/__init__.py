"""Benchmark harness for wanloc; see run.py."""
