"""Blaschke products and geometric factors from their closed forms, every
coefficient of the requested length kept.

The library's constructors stop a series where its envelope falls below
2**-465; these build the same coefficients and envelopes at the full length,
as TruncSeries(...) keeps exactly what it is given, so tests can reach the
subnormal and underflowing stretches and compare the two.
"""

import numpy as np

from opa.series import TruncSeries, _global_majorant


def factor(beta, length):
    """The Blaschke factor at beta (0 < |beta| < 1), length coefficients."""
    beta = complex(beta)
    rho = abs(beta)
    coeffs = np.empty(length, dtype=complex)
    coeffs[0] = rho
    with np.errstate(under="ignore"):
        coeffs[1:] = (rho / beta) * np.conj(beta) ** (np.arange(1, length) - 1) * (rho**2 - 1.0)
    return TruncSeries(coeffs, (1.0 - rho**2) / rho, rho, 0.0)


def geometric(c, length):
    """1/(1 - c z) (0 < |c| < 1), length coefficients."""
    c = complex(c)
    with np.errstate(under="ignore"):
        return TruncSeries(c ** np.arange(length), 1.0, abs(c), 0.0)


def mul(a, b):
    """The product series_mul forms of two series with a tail, at the shorter
    stored length, with nothing trimmed."""
    rhat = max(a.tail_r, b.tail_r)
    gamma = 1.0 + max(a.tail_gamma, 0.0) + max(b.tail_gamma, 0.0)
    with np.errstate(under="ignore"):
        coeffs = np.convolve(a.coeffs, b.coeffs)[: min(len(a), len(b))]
    return TruncSeries(coeffs, _global_majorant(a, rhat) * _global_majorant(b, rhat), rhat, gamma)


def product(betas, length, c=None):
    """blaschke_product(betas, length=length), times geometric_series(c,
    length=length) when c is given, with nothing trimmed."""
    out = factor(betas[0], length)
    for beta in betas[1:]:
        out = mul(out, factor(beta, length))
    return out if c is None else mul(out, geometric(c, length))
