"""The truncated occupation-space oracle and the geometric-series inverse.

Starting from a probability-like base measure kappa, nu_from_kappa builds a
measure whose moments carry the geometric multiplier
prod_j (1 - e^{-beta r_j} e^{2 pi i t_j})^{-1}.  Two independent numerical
routes verify the closed forms:

  * a dense model on the occupation lattice {0..P}^k (isometries become
    shifts, rotations become diagonal phases) evaluates the state with no
    transform formulas, up to an explicitly computed geometric tail;
  * truncating the geometric series inverts nu -> kappa -> nu with an error
    controlled by a closed-form tail fraction.

The demo grows the truncation box and watches both errors track their bounds.
"""

from __future__ import annotations

import numpy as np

import toruskms as tk

rng = np.random.default_rng(3)

params = tk.BlockParams(theta=np.array([[0.23]]), r=np.array([0.9]), beta=1.2)
# kappa must carry mass 1/partition_value so the induced state is normalized
kappa_mass = 1.0 / params.partition_value()
points = rng.random((2, 1))
weights = kappa_mass * rng.dirichlet(np.ones(2))
kappa = tk.AtomicMeasure(points=points, weights=weights)
nu = tk.nu_from_kappa(kappa, params)

print("d = k = 1 block, beta =", params.beta, " r =", params.r[0])
print(f"partition value = {params.partition_value():.6f}, kappa mass = {kappa_mass:.6f}")

words = [
    tk.parse_word("V[0] U[1] V*[0] @ 1", 1, 1),
    tk.parse_word("V[1] U[2] V*[1] @ 1", 1, 1),
    tk.parse_word("V[2] U[-1] V*[2] @ 1", 1, 1),
]

print()
print("closed form vs dense occupation model, growing the box:")
default_box = tk.FockTruncation.for_params(params).box
print(f"{'box':>4} {'worst |closed - dense|':>24} {'tail bound':>14}")
for box in (4, 8, default_box):
    trunc = tk.FockTruncation(box=box)
    worst = 0.0
    for w in words:
        a = tk.AlgebraElement.from_word(w)
        closed = tk.state_eval(nu, params, a)
        dense = tk.fock_state_eval(kappa, params, a, trunc)
        worst = max(worst, abs(closed - dense))
    bound = trunc.tail_weight(params) * abs(kappa.total_mass())
    print(f"{box:>4} {worst:>24.3e} {bound:>14.3e}")
print(f"(default box for these parameters: {default_box})")

print()
print("geometric-series inverse: kappa_from_nu, then resum a truncated series:")
kappa_back = tk.kappa_from_nu(nu, params)
print(f"{'box':>4} {'worst moment error':>20} {'tail bound':>14}")
for box in (5, 10, 20, 40):
    worst = 0.0
    bound = tk.geometric_tail_fraction(params, box) * abs(nu.total_mass())
    for n in range(-3, 4):
        resummed = tk.truncated_inverse_moment(kappa_back, params, np.array([n]), box)
        worst = max(worst, abs(resummed - nu.moment(np.array([n]))))
    print(f"{box:>4} {worst:>20.3e} {bound:>14.3e}")

print()
print("iterated-limit route to the inverse Laplace transform:")
schedule = tuple(10.0 ** (-1 - 0.5 * i) for i in range(7))
mu = tk.AtomicMeasure(points=rng.random((2, 1)), weights=rng.dirichlet(np.ones(2)))
nu_mu = tk.nu_from_mu(mu, params)
n = np.array([1])
target = mu.moment(n)
values = tk.numeric_limit_mu(nu_mu, params, n, schedule)
print(f"{'s':>10} {'|scaled defect - mu_hat(n)|':>28}")
for s, v in zip(schedule, values):
    print(f"{s:>10.1e} {abs(v - target):>28.3e}")
errors = np.abs(values - target)
slope = np.polyfit(np.log10(schedule), np.log10(errors), 1)[0]
print(f"empirical convergence order: {slope:.3f} (first order in s)")
