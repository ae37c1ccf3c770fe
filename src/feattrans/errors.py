"""Exception hierarchy shared across the toolkit: one type per CLI exit code.

DataError (exit 3) covers bad files and inconsistent inputs, NumericError
(exit 4) a numeric failure, and InvalidConfig (exit 2) an out-of-range
setting, which the CLI reports as a usage error. Each raise site says what
went wrong in its message; no code tells the cases apart by type.
"""


class FeattransError(Exception):
    pass


class DataError(FeattransError):
    pass


class NumericError(FeattransError):
    pass


class InvalidConfig(FeattransError, ValueError):
    pass
