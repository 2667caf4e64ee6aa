"""Exception types shared across the library."""


class UpicError(Exception):
    pass


class BoundaryNotInCycles(UpicError):
    """A boundary column of a subquotient is not in the cycle lattice."""


class NotASubgroup(UpicError):
    pass


class HasTorsion(UpicError):
    """A lattice-only operation was applied to a module with torsion."""


class NotCyclic(UpicError):
    pass


class BudgetExceeded(UpicError):
    pass


class PreconditionH0(UpicError):
    """Degree-0 cohomology of the middle complex does not vanish."""


class NotExact(UpicError):
    """A claimed short exact sequence fails degreewise exactness."""


class ExactnessViolation(UpicError):
    """Internal consistency check failed; indicates a bug, not bad input."""


class ValidationError(UpicError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class TaskFileError(UpicError):
    """Task file cannot be parsed."""


class TaskError(UpicError):
    """A task failed while executing (including oracle mismatches)."""
