"""Shared exception types.

The CLI maps these onto its exit-code contract: InputError -> 2,
BudgetError -> 3, verdict-style failures (NotSemilatticeError,
AxiomError, NotModularError) -> 1.  A certificate that fails its own check
raises AssertionError, which the CLI maps to 4.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad schema, unknown element, ...)."""


class BudgetError(RuntimeError):
    """An enumeration exceeded its configured budget."""


class NotSemilatticeError(ValueError):
    """A poset failed the meet-semilattice validation.

    ``witness`` holds a pair of elements with no greatest common lower bound.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class AxiomError(ValueError):
    """A structure violated a point-line axiom required as a precondition."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotModularError(ValueError):
    """An operation requiring a modular semilattice got a non-modular one."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
