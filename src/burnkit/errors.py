"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes, so new failure modes should
subclass one of the categories below rather than raising bare ValueError.
"""


class BurnkitError(Exception):
    """Base class for all toolkit errors."""


class InputError(BurnkitError):
    """Malformed input: bad construction arguments, unparsable files."""


class GraphError(InputError):
    """Invalid graph construction or a query that violates a precondition."""


class InstanceError(InputError):
    """A 3-partition instance violating one of the named validity checks."""


class ScheduleError(BurnkitError):
    """A burning schedule that is not well formed for the given graph:
    empty, repeated or out-of-range sources, or a source already burnt
    at the start of its round."""


# every search's node budget unless its caller, or the CLI's user, names one
DEFAULT_NODE_BUDGET = 2_000_000


def check_node_budget(budget: int, source: str = "node_budget") -> None:
    """Refuse a budget below 0, named by source; 0 reaches the search."""
    if budget < 0:
        raise InputError(f"{source} must be at least 0, got {budget}")


class BudgetExceededError(BurnkitError):
    """A backtracking search ran out of its node budget before concluding."""

    def __init__(self, message: str, nodes_explored: int):
        super().__init__(message)
        self.nodes_explored = nodes_explored


class InternalError(BurnkitError, AssertionError):
    """A result failed the check of the function that built it: a fault
    in burnkit, not in its input.  Raised explicitly, so python -O keeps
    every such check; still an AssertionError for callers that catch one."""


class ExtractionError(BurnkitError):
    """A schedule handed to a reverse mapping fails its preconditions."""


class NotOptimalShapedError(ExtractionError):
    """A complete minimum-length schedule whose clusters do not form the
    forced disjoint tiling the reductions rely on.  Unreachable for
    faithfully constructed gadgets; kept as a defensive diagnosis."""
