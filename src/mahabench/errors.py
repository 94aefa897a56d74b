"""Exception types shared across the package."""


class MahabenchError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(MahabenchError):
    """Cholesky factorization failed; ``pivot`` is the 0-based failing pivot."""

    def __init__(self, pivot: int, message: str | None = None):
        self.pivot = pivot
        super().__init__(message or f"matrix is not positive definite (pivot {pivot})")

    def __reduce__(self):  # pickle rebuilds from args, which hold the message only
        return type(self), (self.pivot, str(self))


class NotRepairable(MahabenchError):
    """No jitter level in the schedule made the matrix positive definite."""


class DimensionMismatch(MahabenchError):
    """Operands disagree on vector or matrix dimensions."""


class EmptyClass(MahabenchError):
    """A class has no support mass; ``class_index`` identifies it."""

    def __init__(self, class_index: int, message: str | None = None):
        self.class_index = class_index
        super().__init__(message or f"class {class_index} has no support mass")

    def __reduce__(self):
        return type(self), (self.class_index, str(self))


class LabelOutOfRange(MahabenchError):
    """A class label lies outside ``[0, num_classes)``."""


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
        self.reason = message
        super().__init__(f"line {line}: {message}")

    def __reduce__(self):
        return type(self), (self.line, self.reason)


class WorkerFailed(MahabenchError):
    """A worker process died, or sent back a result that could not be read."""
