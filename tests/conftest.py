"""Helpers shared by the test modules."""


def tuples(states):
    """The rows of an ``(S, N)`` label array as label tuples, the input of the
    tuple-loop reference implementations and of hypothesis ``sampled_from``."""
    return [tuple(row) for row in states.tolist()]
