"""Exception types shared across the package.

Every precondition failure raises one of these; the CLI maps them to
exit codes (input errors vs. internal consistency failures).
"""


class GraphConfError(Exception):
    """Base class for all package errors."""


class InputError(GraphConfError):
    """Bad user input: malformed data or violated precondition."""


class InternalError(GraphConfError):
    """Consistency assertion failed; indicates a bug, not bad input."""


class DuplicateId(InputError):
    pass


class UnknownVertex(InputError):
    pass


class UnknownEdge(InputError):
    pass


class OpenEdge(InputError):
    pass


class NonComposable(InputError):
    pass


class WrongDegree(InputError):
    pass


class InvalidCategory(InputError):
    pass


class EmptyComplex(InputError):
    pass


class NonFreeAction(InputError):
    pass


class NotAComplex(InternalError):
    pass


class Disconnected(InputError):
    pass


class NotOneDimensional(InputError):
    pass


class HasLeaves(InputError):
    pass
