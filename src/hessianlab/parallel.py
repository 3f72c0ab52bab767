"""Placeholder with no code: the suites run their checks in a plain loop.

The module stays only because perfbench's tracer imports every layer by
name; it goes with the benchmark change that drops "parallel" from
perfbench/spans.py's LAYERS (ROADMAP item 4).
"""
