"""Shared low-level helpers: randomness plumbing and math utilities."""
