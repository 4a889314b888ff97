"""An exact rational sweep as an oracle for the float sweep.

For a dyadic polynomial f and an integer alpha, every Gram entry
<z^j f, z^k f> = sum_t (t+1)^alpha f_{t-j} conj(f_{t-k}) of D_alpha is a
Gaussian rational.  A banded LDL^H factorization over fractions.Fraction,
with no square roots, then gives each squared distance of the sweep for
g = 1 exactly: dist^2_n = ||1||^2 - sum_{i<=n} |y_i|^2 / D_i with
y = L^-1 rhs and rhs_k = <1, z^k f>.
"""

from fractions import Fraction

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from opa.engine import approximant_sweep
from opa.errors import OpaError
from opa.series import CPoly
from opa.spaces import WeightSequence

# Gaussian rationals are pairs (re, im) of Fractions
ZERO = (Fraction(0), Fraction(0))


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _mul_conj(a, b):
    """a conj(b)"""
    return (a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def exact_gram(f, alpha, n):
    """The band of G[k, j] = <z^j f, z^k f> in D_alpha for j, k <= n, as a
    dict {(k, j): value} over k >= j, and the band width deg f."""
    d = len(f) - 1
    weight = [Fraction(t + 1) ** alpha for t in range(n + d + 1)]
    G = {}
    for j in range(n + 1):
        for k in range(j, min(j + d, n) + 1):
            s = ZERO
            for t in range(k, j + d + 1):  # (z^j f)_t (z^k f)_t both nonzero
                p = _mul_conj(f[t - j], f[t - k])
                s = (s[0] + weight[t] * p[0], s[1] + weight[t] * p[1])
            G[k, j] = s
    return G, d


def exact_distances(f, alpha, n_max):
    """dist^2_n of the degree-n optimal approximant of g = 1 for f, n <= n_max,
    from a banded LDL^H of the Gram matrix: exact Fractions."""
    G, d = exact_gram(f, alpha, n_max)
    L, D = {}, []
    for j in range(n_max + 1):
        lo = max(0, j - d)
        Dj = G[j, j][0] - sum((abs2(L[j, k]) * D[k] for k in range(lo, j)), Fraction(0))
        D.append(Dj)
        for i in range(j + 1, min(j + d, n_max) + 1):
            s = G[i, j]
            for k in range(max(0, i - d), j):
                p = _mul_conj(L[i, k], L[j, k])
                s = _sub(s, (p[0] * D[k], p[1] * D[k]))
            L[i, j] = (s[0] / Dj, s[1] / Dj)
    # rhs_k = <1, z^k f> = conj(f_0) for k = 0, else 0; w_0 = 1 and ||1||^2 = 1
    y = []
    for i in range(n_max + 1):
        s = (f[0][0], -f[0][1]) if i == 0 else ZERO
        for k in range(max(0, i - d), i):
            s = _sub(s, _mul(L[i, k], y[k]))
        y.append(s)
    dist, out = Fraction(1), []
    for yi, Di in zip(y, D):
        dist -= abs2(yi) / Di
        out.append(dist)
    return out


def abs2(a):
    return a[0] * a[0] + a[1] * a[1]


def test_exact_distances_hand_values():
    # f = 1 - z in H2: dist^2_n = 1 - (n + 1)/(n + 2) = 1/(n + 2)
    f = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))]
    assert exact_distances(f, 0, 6) == [Fraction(1, n + 2) for n in range(7)]
    # f = 1 - z/2 in H2, degree 0: 1 - |<1, f>|^2 / ||f||^2 = 1 - 1/(5/4)
    f = [(Fraction(1), Fraction(0)), (Fraction(-1, 2), Fraction(0))]
    assert exact_distances(f, 0, 0) == [Fraction(1, 5)]


dyadic = st.integers(-256, 256).map(lambda k: Fraction(k, 256))
gaussian = st.tuples(dyadic, dyadic)


@settings(max_examples=200, deadline=None)
@given(
    f0=gaussian.filter(lambda c: c != ZERO),
    rest=st.lists(gaussian, max_size=5),
    alpha=st.sampled_from([-1, 0, 1, 2, 3]),
    n_max=st.integers(0, 16),
)
def test_sweep_distances_within_their_bars_of_the_exact_values(f0, rest, alpha, n_max):
    f = [f0] + rest
    while f[-1] == ZERO:  # the degree is that of the last nonzero coefficient
        f = f[:-1]
    coeffs = [complex(float(re), float(im)) for re, im in f]  # exact: dyadic
    try:
        sweep = approximant_sweep(WeightSequence.dirichlet(float(alpha)), CPoly(coeffs), n_max=n_max)
    except OpaError as exc:
        event(f"refused: {type(exc).__name__}")
        assume(False)
    exact = exact_distances(f, alpha, n_max)
    for res, want in zip(sweep, exact):
        off = abs(Fraction(res.distance_sq) - want)
        assert off <= Fraction(res.err), (res.n, float(off), res.err)
