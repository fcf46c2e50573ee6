"""nsrbench: one benchmark for the whole TENSOR simulator (see README.md)."""
