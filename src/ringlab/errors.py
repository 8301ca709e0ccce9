"""Exception types shared across the package.

Exit-code mapping used by the CLI: 1 construction/usage, 2 theorem
violation, 3 capacity exceeded.
"""


class RinglabError(Exception):
    exit_code = 1


class InvalidConstruction(RinglabError):
    pass


class InvalidIdeal(RinglabError):
    pass


class ScalarMismatch(RinglabError):
    pass


class InvalidQuery(RinglabError):
    pass


class CapacityExceeded(RinglabError):
    exit_code = 3


class TheoremViolation(RinglabError):
    exit_code = 2
