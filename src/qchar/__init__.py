"""Exact computation of standard and dual canonical bases on tensor modules,
and the character tables (decomposition matrices, simple-character and
standard-module expansions) they control.
"""

__version__ = "0.1.0"
