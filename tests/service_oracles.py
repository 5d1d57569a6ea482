"""Service-time quantities that only the tests read.

The library reads a service law through its transform alone, so it has no
mean of its own; service_mean gives it, in every family, from the exact
transform derivative.
"""


def service_mean(model) -> float:
    """Exact E[S] of `model`: -L'(0), minus the exact transform derivative at 0."""
    return -model.laplace_derivative(0.0)
