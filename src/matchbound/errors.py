"""Shared exception types."""


class ParseError(ValueError):
    """Malformed graph input (edge list, graph6, or bipartite format)."""


class CapExceeded(RuntimeError):
    """A documented feasibility cap was hit (size, states, enumeration, retries)."""
