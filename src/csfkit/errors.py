"""Exception hierarchy shared across the toolkit.

The CLI maps these onto its exit-code contract: data problems
(parse failures, non-tree inputs, inconsistent theta tables) exit 3,
resource-limit refusals exit 4.
"""


class CsfkitError(Exception):
    """Base class for all toolkit errors."""


class GraphParseError(CsfkitError, ValueError):
    """Malformed edge-list text; the message names the offending line."""


class NotATreeError(CsfkitError, ValueError):
    """A tree-only operation received a graph that is not a tree."""


class ResourceLimitError(CsfkitError, RuntimeError):
    """An enumeration would exceed a fixed work limit."""


class InconsistentDataError(CsfkitError, ValueError):
    """Theta data that no tree can realize; the message names the culprit."""


class TwoCentroidError(InconsistentDataError):
    """Theta data implying two centroids, which pair data cannot resolve."""
