"""Exception types shared across the package, and beside CapacityError the
budget rule of every counted search."""


class ParameterError(ValueError):
    """A parameter triple is unacceptable, or a magic value is not magic."""


class RangeError(ValueError):
    """A distance, label or index is outside its permitted range."""


class FormatError(ValueError):
    """Malformed graph or catalogue input."""


class CapacityError(RuntimeError):
    """A brute-force search would exceed its configured bound."""


class PreconditionError(RuntimeError):
    """An operation was invoked on input that violates its contract."""


DEFAULT_BUDGET = 10**8  # the count a search may reach unless told otherwise


def _check_budget(text: str, budget: int, count: int, exponent: int = 1) -> None:
    """Raise CapacityError when ``count ** exponent`` exceeds ``budget``: its
    text is ``text`` formatted with the count and the exponent, then "the
    budget of" ``budget``.  Every budget refusal of the package is raised
    here.  A power that may pass 64 bits is written ``count^exponent``; as
    its base is at least 2, it is over budget once exponent >=
    budget.bit_length(), and it is not built then.  A budget that is not an
    int raises TypeError before anything is compared, whatever the power."""
    if type(budget) is not int:
        raise TypeError(f"budget {budget!r} is not an int")
    if exponent * count.bit_length() <= 64 or exponent == 1:
        count **= exponent
        if count <= budget:
            return
    elif exponent < budget.bit_length() and count**exponent <= budget:
        return
    else:
        count = f"{count}^{exponent}"
    raise CapacityError(f"{text.format(count=count, exponent=exponent)} the budget of {budget}")
