"""Complex-step differentiation, the tests' derivative oracle.

For f real-analytic, f(x + ih) = f(x) + ih f'(x) + O(h^2), so
f'(x) = imag(f(x + ih)) / h with no subtraction and hence no cancellation
error; h can be far below machine epsilon (Squire & Trapp 1998, SIAM
Review 40; Martins, Sturdza & Alonso 2003, ACM TOMS 29).
"""

import numpy as np

H = 1e-30


def derivative(f, x):
    """Derivative of ``f`` along ``x``, elementwise: with every entry of
    ``x`` stepped at once, a pointwise ``f`` yields each point's partial."""
    return np.imag(f(x + 1j * H)) / H


def gradient(f, x):
    """Gradient of a scalar ``f`` at the 1-d point ``x``, one complex
    evaluation per entry."""
    steps = np.asarray(x, dtype=complex) + 1j * H * np.eye(np.size(x))
    return np.array([np.imag(f(step)) / H for step in steps])
