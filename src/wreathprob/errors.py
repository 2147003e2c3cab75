"""The two ways a request fails, each raised where it is decided.

``InputError`` is input the library cannot use (exit 2); ``Infeasible``
is a well-formed request past a work budget (exit 3).  Both are
``ValueError``s, so callers that catch that keep working.  Apart from
``NoLimitTable``, which is an answer, any other exception is a fault.
"""


class WreathprobError(ValueError):
    exit_code = 1
    label = "error"


class InputError(WreathprobError):
    exit_code = 2
    label = "usage error"


class Infeasible(WreathprobError):
    exit_code = 3
    label = "infeasible request"


class NoLimitTable(ValueError):
    """No failure: the family's constructor tree has no limit table, shown as none."""
