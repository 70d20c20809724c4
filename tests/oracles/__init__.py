"""Naive reference implementations that production code is tested against."""
