"""The extreme eigenpair of a symmetric tridiagonal, without LAPACK.

``dominant_ritz`` is Lanczos's Ritz pair of largest magnitude
(``curvature.top_eigenvalue``).  Only an extreme eigenvalue can have the
largest magnitude, so it finds the largest by Newton on ``det(xI - T)``
from an upper bound built on the previous step's, and the smallest the
same way on ``-T`` only when a lower bound carried from step to step
cannot rule it out.  The last component of its eigenvector comes from a
twisted factorization (Dhillon & Parlett 2004).

``top_eigenvalue`` imports this module when it runs, so a process that
only parses a config, which imports ``curvature`` for
``CurvatureConfig``, does not load it: measured, the extra code raised
the resident peak of such a process by about 0.1 MB.
"""

import math
import sys


def dominant_ritz(alpha, beta, top, low):
    """The eigenvalue of largest magnitude of a symmetric tridiagonal T, and
    the magnitude of the last component of its unit eigenvector.

    T has diagonal ``alpha`` (k floats) and positive off-diagonal ``beta``
    (k - 1).  ``top`` is the largest eigenvalue of T's leading (k-1)x(k-1)
    block and ``low`` a lower bound on its smallest (unread when k = 1),
    as the previous call returned them.  Returns ``(value,
    |s[k-1]|, top, low)`` with ``top`` and ``low`` for T itself.  On a tie
    in magnitude the negative eigenvalue is reported.
    """
    a = alpha[-1]
    high = floor = a
    if beta:  # for a unit (u, c), u'Tu is within the 2x2 [[top, b], [b, a]]'s eigenvalues
        high = (top + a) / 2 + math.hypot((top - a) / 2, beta[-1])
        floor = (low + a) / 2 - math.hypot((low - a) / 2, beta[-1])
    pad = 4 * sys.float_info.epsilon * max(abs(high), abs(floor))  # covers their rounding
    squares = [b * b for b in beta]
    top = _largest_root(alpha, squares, high + pad)
    if floor - pad > -top:  # every eigenvalue exceeds -top
        return top, _last_component(alpha, beta, squares, top), top, floor - pad
    negated = [-x for x in alpha]
    flipped = _largest_root(negated, squares, pad - floor)  # -(the smallest eigenvalue)
    bottom = 0.0 - flipped  # not -flipped: a zero eigenvalue stays +0.0
    if flipped >= top:
        return bottom, _last_component(negated, beta, squares, flipped), top, bottom
    return top, _last_component(alpha, beta, squares, top), top, bottom


def _largest_root(alpha, squares, x):
    """The largest eigenvalue of the tridiagonal (``alpha``, off-diagonal
    squares ``squares``), by Newton from ``x`` above it.

    The pivots of ``xI - T = L D L^T``, ``d_1 = x - alpha_1`` and ``d_i =
    x - alpha_i - squares_{i-1} / d_{i-1}``, multiply to ``det(xI - T)``,
    so a Newton step is ``x -= 1 / sum(d_i' / d_i)``.  Above the largest
    root of a polynomial with real roots the iterates fall monotonically;
    the first that does not, or that meets a pivot <= 0, ends the search.
    """
    first, rest = alpha[0], list(zip(alpha[1:], squares))
    while True:
        d = x - first
        if d <= 0.0:
            return x
        slope, total = 1.0, 1.0 / d  # d_i' and the sum of d_i' / d_i
        for a, b2 in rest:
            ratio = b2 / d
            slope = 1.0 + ratio * (slope / d)
            d = x - a - ratio
            if d <= 0.0:
                return x
            total += slope / d
        step = x - 1.0 / total
        if not step < x:
            return x
        x = step


def _last_component(alpha, beta, squares, x):
    """``|z[k-1]| / ||z||`` for the eigenvector z of the tridiagonal T at
    its largest eigenvalue ``x``, by a twisted factorization.

    Forward pivots ``p`` and backward pivots ``q`` of ``xI - T`` give
    ``gamma_r = p_r + q_r - (x - alpha_r)``; ``z_r = 1`` at the twist r
    where ``|gamma_r|`` is least, and z is solved outward from it.  The
    shortcut ``s_k^2 = 1 / d_k'(x)`` loses all accuracy once ``s_k`` is
    small, which is when Lanczos has converged.
    """
    k = len(alpha)
    tiny = sys.float_info.min * max([1.0, *squares])  # stands in for a zero pivot
    p = [x - alpha[0] or tiny]
    for a, b2 in zip(alpha[1:], squares):
        p.append(x - a - b2 / p[-1] or tiny)
    q = [x - alpha[-1] or tiny]
    for a, b2 in zip(alpha[-2::-1], squares[::-1]):
        q.append(x - a - b2 / q[-1] or tiny)
    q.reverse()
    gammas = [abs(p[i] + q[i] - (x - alpha[i])) for i in range(k)]
    r = gammas.index(min(gammas))
    z = norm2 = 1.0
    for i in range(r - 1, -1, -1):  # rows above the twist: z_i = beta_i z_{i+1} / p_i
        z *= beta[i] / p[i]
        norm2 += z * z
    z = 1.0
    for i in range(r + 1, k):  # rows below: z_i = beta_{i-1} z_{i-1} / q_i
        z *= beta[i - 1] / q[i]
        norm2 += z * z
    return abs(z) / math.sqrt(norm2)
