"""Frozen reference implementations that the test suite checks the product against."""
