"""Central finite differences, the oracle for every vector-Jacobian rule in
``ctcseq.autodiff`` and for the gradients of the losses and the model."""
import numpy as np

from ctcseq.autodiff import Parameter, backward, no_grad


def finite_difference_check(f, p: Parameter, h: float = 1e-5) -> float:
    """Max over coordinates of the central-difference gradient error.

    Error per coordinate is |analytic - numeric| / max(1, |analytic|),
    where numeric = (f(p + h e_i) - f(p - h e_i)) / 2h. ``f`` must be a
    deterministic scalar function of ``p``'s current value.
    """
    p.zero_grad()
    out = f()
    backward(out)
    analytic = np.zeros_like(p.data) if p.grad is None else p.grad.copy()

    max_err = 0.0
    flat = p.data.reshape(-1)
    aflat = analytic.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        with no_grad():
            fp = f().item()
        flat[i] = orig - h
        with no_grad():
            fm = f().item()
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * h)
        err = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]))
        if err > max_err:
            max_err = err
    return max_err
