"""Exception hierarchy shared across the toolkit.

Data errors (bad files, inconsistent inputs) all derive from DataError so
the CLI can map them to a single exit code; numeric failures derive from
NumericError; out-of-range settings raise InvalidConfig, which the CLI
reports as a usage error.
"""


class FeattransError(Exception):
    pass


class DataError(FeattransError):
    pass


class NumericError(FeattransError):
    pass


class InvalidConfig(FeattransError, ValueError):
    pass


class DuplicateId(DataError):
    def __init__(self, image_id: str):
        self.image_id = image_id
        super().__init__(f"duplicate id {image_id!r}")


class InconsistentDim(DataError):
    def __init__(self, at: int, expected: int, got: int):
        self.at = at
        super().__init__(
            f"record {at}: dimension {got} differs from first record's {expected}"
        )


class NonFiniteValue(DataError):
    def __init__(self, at: int):
        self.at = at
        super().__init__(f"record {at}: non-finite value")


class ZeroVector(DataError):
    def __init__(self, image_id: str):
        self.image_id = image_id
        super().__init__(f"zero vector for id {image_id!r} cannot be normalized")


class NoCommonIds(DataError):
    def __init__(self):
        super().__init__("source and target feature sets share no ids")


class UnknownRelevantId(DataError):
    def __init__(self, query_id: str, rel_id: str):
        self.query_id = query_id
        self.rel_id = rel_id
        super().__init__(
            f"relevant id {rel_id!r} for query {query_id!r} not present in reference set"
        )


class UnsupportedForBaseline(DataError):
    def __init__(self):
        super().__init__("reconstruct is undefined for the mlp_baseline model (no target encoder)")


class BadModelFile(DataError):
    pass


class BadMagic(BadModelFile):
    def __init__(self, got: bytes):
        super().__init__(f"not a model file (magic {got!r})")


class MissingPair(DataError):
    def __init__(self, source: str, target: str):
        self.source = source
        self.target = target
        super().__init__(f"no trained model for pair ({source!r}, {target!r})")


class NotUndirected(DataError):
    def __init__(self, detail: str = ""):
        super().__init__(f"affinity matrix is not a symmetric undirected matrix {detail}".rstrip())
