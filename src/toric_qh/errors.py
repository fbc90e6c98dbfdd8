"""Error taxonomy shared across the library.

Every failure mode carries a stable ``code`` string and an ``exit_code``
used by the CLI: mathematical rejections exit 1, input/usage errors exit 2.
"""


class ToricQHError(Exception):
    code = "Error"
    exit_code = 1


class ParseError(ToricQHError):
    code = "ParseError"
    exit_code = 2

    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col


class SchemaError(ToricQHError):
    code = "SchemaError"
    exit_code = 2

    def __init__(self, message, path="$"):
        super().__init__(message)
        self.path = path


class DelzantError(ToricQHError):
    """Raised when an operation requires a valid Delzant polytope; carries the report."""

    code = "DelzantError"

    def __init__(self, report):
        super().__init__("; ".join(report.reasons) or "invalid polytope")
        self.report = report


class NonGenericXiError(ToricQHError):
    code = "NonGenericXi"


class FanoViolationError(ToricQHError):
    code = "FanoViolation"


class NoBatyrevVectorError(ToricQHError):
    code = "NoBatyrevVector"


class NonHomogeneousGeneratorError(ToricQHError):
    code = "NonHomogeneousGenerator"


class InfiniteDimensionalError(ToricQHError):
    code = "InfiniteDimensional"


class NotInvertibleError(ToricQHError):
    code = "NotInvertible"


class OutOfMemoryError(ToricQHError):
    code = "OutOfMemory"


class CrosscheckFailedError(ToricQHError):
    """Degree-doubling cross-check failure; carries both compared vectors."""

    code = "CrosscheckFailed"

    def __init__(self, message, left, right):
        super().__init__(f"{message}: {tuple(left)} vs {tuple(right)}")
        self.left = tuple(left)
        self.right = tuple(right)
