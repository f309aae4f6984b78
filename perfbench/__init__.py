"""Seeded benchmark for burnkit; entry point perfbench/run.py."""
