"""Unit tests of the benchmark's own maths: ``python -m pytest bench/tests -q``."""
