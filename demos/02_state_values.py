"""Closed-form state values against the quadrature oracle.

A block of parameters (theta, r, beta) plus a nonnegative torus measure mu
determines a state on the algebra of words V[p] U[n] V*[q].  Two independent
routes to the same numbers:

  closed form   nu_mu has moments mu_hat(n) * prod_j 1/(beta r_j - 2 pi i t_j)
                with t = theta n, and the state is delta_{p,q} e^{-beta p.r}
                times that moment
  oracle        fixed composite Gauss-Legendre quadrature of the Laplace
                average integral, its panel count set from the block and the
                index; no transform formulas involved

The demo prints both on a grid of moments and on a handful of words.
"""

from __future__ import annotations

import numpy as np

import toruskms as tk

rng = np.random.default_rng(7)

theta = np.array([[0.31, 0.07], [0.11, 0.53]])
r = np.array([0.8, 1.3])
beta = 1.1
params = tk.BlockParams(theta=theta, r=r, beta=beta)

points = rng.random((3, 2))
weights = rng.dirichlet(np.ones(3))
mu = tk.AtomicMeasure(points=points, weights=weights)
nu = tk.nu_from_mu(mu, params)

print("block: d = k = 2, beta =", beta)
print("mu: 3 random atoms, total mass", f"{mu.total_mass().real:.6f}")
print()
print("moments of nu_mu, closed form vs quadrature:")
print(f"{'n':>10} {'closed form':>28} {'quadrature':>28} {'|diff|':>10}")
for n in ([0, 0], [1, 0], [0, 1], [2, -1], [-3, 2]):
    closed = nu.moment(np.array(n))
    oracle = tk.laplace_quadrature(mu, params, np.array(n))
    print(f"{str(n):>10} {closed:>28.12f} {oracle:>28.12f} {abs(closed - oracle):>10.2e}")

print()
print("state values on words (diagonal words carry e^{-beta p.r}, the rest vanish):")
words = [
    "V[0,0] U[1,0] V*[0,0] @ 1",
    "V[1,0] U[0,1] V*[1,0] @ 1",
    "V[2,1] U[1,-1] V*[2,1] @ 1",
    "V[1,0] U[1,0] V*[0,1] @ 1",  # p != q, value must be exactly 0
]
norm = 1.0 / nu.moment(np.zeros(2, dtype=np.int64)).real  # state normalization
prob_nu = tk.MultipliedMeasure(nu, lambda n: norm, "normalized")
for text in words:
    w = tk.parse_word(text, k=2, d=2)
    a = tk.AlgebraElement.from_word(w)
    val = tk.state_eval(prob_nu, params, a)
    print(f"  phi({text}) = {val:.10f}")

print()
print("twisted-trace residuals |phi(ab) - phi(b alpha_{i beta}(a))| on random pairs:")
worst = 0.0
for _ in range(5):
    wa = tk.Word(
        p=tuple(rng.integers(0, 3, size=2)),
        n=tuple(rng.integers(-2, 3, size=2)),
        q=tuple(rng.integers(0, 3, size=2)),
        level=1,
    )
    wb = tk.Word(
        p=tuple(rng.integers(0, 3, size=2)),
        n=tuple(rng.integers(-2, 3, size=2)),
        q=tuple(rng.integers(0, 3, size=2)),
        level=1,
    )
    res = tk.kms_residual(prob_nu, params, tk.AlgebraElement.from_word(wa),
                          tk.AlgebraElement.from_word(wb))
    worst = max(worst, res)
    print(f"  {res:.3e}")
print("worst residual:", f"{worst:.3e}")
