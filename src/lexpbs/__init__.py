"""Exact lexicographic column-generation solver for the airline
preferential bidding system."""

from .lexcore import LexValue, lex_is_positive

__all__ = ["LexValue", "lex_is_positive"]
__version__ = "0.1.0"
