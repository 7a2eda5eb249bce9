"""Exception and warning types shared across the package."""


class CausalSteerError(Exception):
    """Base class for all errors raised by this package."""


class CycleDetected(CausalSteerError):
    """The nonzero pattern of the weight matrix contains a directed cycle.

    ``cycle`` lists the vertices of one witness cycle (1-based) in edge
    order, starting from the smallest vertex on the cycle.
    """

    def __init__(self, cycle: list[int]):
        self.cycle = list(cycle)
        super().__init__(f"cycle detected: {' -> '.join(map(str, self.cycle))} -> {self.cycle[0]}")


class NonzeroDiagonal(CausalSteerError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"variable {index} has a nonzero self-weight")


class NonFiniteWeight(CausalSteerError):
    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j
        super().__init__(f"weight of variable {j} into variable {i} is not finite")


class IndexOutOfRange(CausalSteerError):
    def __init__(self, index, n: int, what: str = "variable index"):
        self.index = index
        self.n = n
        super().__init__(f"{what} {index} out of range 1..{n}")


def check_indices(indices, n: int, what: str = "variable index") -> None:
    """Raise IndexOutOfRange, naming the first, unless all ``indices`` are 1-based indices 1..n."""
    for i in indices:
        if not 1 <= i <= n:
            raise IndexOutOfRange(i, n, what)


def check_index(i, n: int, what: str = "variable index") -> None:
    """Raise IndexOutOfRange unless i is one of the 1-based indices 1..n."""
    check_indices((i,), n, what)


class RankDeficient(CausalSteerError):
    """The regression design matrix does not have full column rank."""


class InsufficientRows(CausalSteerError):
    """Fewer rows than needed to fit the requested model."""


class SingleClass(CausalSteerError):
    """Logistic fitting requires both classes to be present in the labels."""


class AllEffectsZero(CausalSteerError):
    """No candidate variable has any causal effect on the prediction node."""


class ZeroCausalEffect(CausalSteerError):
    """The intervened variable cannot move the expected prediction.

    Raised when the prediction-weighted sensitivity is below threshold, in
    which case no finite intervention value reaches the desired prediction.
    """

    def __init__(self, index: int, effect: float):
        self.index = index
        self.effect = effect
        super().__init__(
            f"intervening on variable {index} has no effect on the prediction "
            f"(|effect| = {abs(effect):.3e})"
        )


class NonFiniteValue(CausalSteerError):
    """The value that steers the prediction to the desired value overflows the float range."""


class InterveneOnTarget(CausalSteerError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"variable {index} is the prediction target; intervene on a different variable")


class ZeroCoefficient(CausalSteerError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"model coefficient of variable {index} is zero; the naive value is undefined")


class InvalidConfig(CausalSteerError):
    """A generation or sweep configuration violates its invariants."""


class NetworkUnavailable(CausalSteerError):
    """The dataset could not be downloaded and no cached copy exists."""


class ParseError(CausalSteerError):
    """A malformed input, at ``line`` (1-based), or in the whole input when ``line`` is None."""

    def __init__(self, line: int | None, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(reason if line is None else f"line {line}: {reason}")


class DidNotConvergeWarning(UserWarning):
    """Iterative fitting hit its iteration cap before meeting the tolerance."""
