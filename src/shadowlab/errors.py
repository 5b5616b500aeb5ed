"""Exception hierarchy shared by all shadowlab modules."""


class ShadowlabError(Exception):
    """Base class for all shadowlab errors."""


class ParameterError(ShadowlabError):
    """A call violated a documented parameter precondition."""


class EdgeError(ParameterError):
    """An edge list broke an edge rule; carries the 0-based index of its
    first bad edge."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


class EmptyInputError(ShadowlabError):
    """An operation that needs a nonempty hypergraph received an empty one."""


class DomainError(ShadowlabError):
    """A numeric argument lies outside the domain of a bound formula."""


class PreconditionError(ShadowlabError):
    """A structural precondition failed; carries the violating witness if known."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceBudgetError(ShadowlabError):
    """A search exceeded its configured budget; carries partial statistics."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class EdgeListParseError(ShadowlabError):
    """Malformed edge-list document; carries the 1-based offending line."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line
