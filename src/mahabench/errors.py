"""Exception types shared across the package."""


class MahabenchError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(MahabenchError):
    """Cholesky factorization failed; ``pivot`` is the 0-based failing pivot."""

    def __init__(self, pivot: int, message: str | None = None):
        self.pivot = pivot
        super().__init__(message or f"matrix is not positive definite (pivot {pivot})")


class NotRepairable(MahabenchError):
    """No jitter level in the schedule made the matrix positive definite."""


class DimensionMismatch(MahabenchError):
    """Operands disagree on vector or matrix dimensions."""


class EmptyClass(MahabenchError):
    """A class has no support mass; ``class_index`` identifies it."""

    def __init__(self, class_index: int, message: str | None = None):
        self.class_index = class_index
        super().__init__(message or f"class {class_index} has no support mass")


class EmptyQuery(MahabenchError):
    """An operation that needs query examples received none."""


class InvalidConfig(MahabenchError):
    """A configuration value violates its documented constraints."""


class NonFiniteInput(MahabenchError):
    """Features or queries contain NaN or infinite values."""


class NotEnoughClasses(MahabenchError):
    """The world has fewer classes than the sampler needs."""


class StrategyHasNoScore(MahabenchError):
    """Random acquisition has no per-example score."""


class PoolExhausted(MahabenchError):
    """All pool examples have already been acquired."""


class FormatError(MahabenchError):
    """A task file is malformed; ``line`` is the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
