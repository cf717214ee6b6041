"""Subinvariance: the positivity condition that picks out usable measures.

Not every positive measure nu is the Laplace average of some mu.  The ones
that are satisfy a family of defect inequalities: applying the product of
(id - e^{-beta s_j r_j} R_j) operators for any s >= 0 must leave a positive
measure.  The demo certifies positivity, shows defects, rejects a measure
that fails, and ends with the operator-level consequence: the Gram matrix of
a correctly damped state is positive semidefinite, an overdamped one is not.
"""

from __future__ import annotations

import itertools

import numpy as np

import toruskms as tk

params = tk.BlockParams(theta=np.array([[0.37]]), r=np.array([1.0]), beta=1.0)
mu = tk.UniformMeasure(d=1)
nu = tk.nu_from_mu(mu, params)

print("nu = Laplace average of the uniform measure, theta = 0.37, beta = r = 1")
verdict = tk.positivity_test(nu)
print("positivity_test:", verdict.kind)

print()
print("continuous defects (id - e^{-beta s r} R)(nu) stay positive for all s >= 0:")
for s in (0.1, 0.5, 1.0, 3.0):
    defect = tk.defect_measure_cts(nu, [s], params)
    v = tk.positivity_test(defect)
    mass = defect.moment(np.zeros(1, dtype=np.int64)).real
    print(f"  s = {s:4.1f}: defect mass = {mass:.6f}, positivity = {v.kind}")

# a finite-family defect multiplies each moment by one factor
# (1 - e^{-beta p.r} e^{2 pi i p.theta n}) per step p; meet-zero steps make
# that product equal its inclusion-exclusion expansion over subsets of F
print()
print("finite-family defect with meet-zero steps (1,0) and (0,2), d = 1, k = 2:")
params2 = tk.BlockParams(theta=np.array([[0.37], [0.21]]), r=np.array([1.0, 0.7]), beta=1.0)
nu2 = tk.nu_from_mu(tk.UniformMeasure(d=1), params2)
d2 = tk.defect_measure_finite(nu2, [(1, 0), (0, 2)], params2)
for n in range(0, 3):
    print(f"  moment n = {n}: {d2.moment(np.array([n])):.10f}")
print("  positivity:", tk.positivity_test(d2).kind)

print()
print("an atomic nu is never a Laplace average; the gate rejects it:")
atom = tk.AtomicMeasure(points=np.array([[0.2]]), weights=np.array([1.0]))
ok, messages = tk.check_subinvariance(atom, params)
print("  check_subinvariance:", ok)
for msg in messages[:2]:
    print("  reason:", msg)
try:
    tk.mu_from_nu(atom, params)
except ValueError as exc:
    print("  mu_from_nu raised ValueError:", str(exc)[:70])

# Operator-level consequence.  Evaluate phi(a* a) on the span of
# {U_n} union {V U_n V*}.  When the Laplace average and the damping factor
# use the same beta the Gram matrix is positive semidefinite; averaging at a
# larger beta than the dynamics damps with (overdamping) breaks positivity.
# A point-mass base keeps the off-diagonal moments alive so the Gram can see
# the mismatch.
print()
print("Gram positivity separates correctly damped from overdamped averages:")
point = tk.AtomicMeasure(points=np.array([[0.2]]), weights=np.array([1.0]))
basis = [
    tk.Word(p=(e,), n=(n,), q=(e,), level=1)
    for e, n in itertools.product((0, 1), range(-3, 4))
]


def gram_min_eig(average_beta: float) -> float:
    block = tk.BlockParams(theta=params.theta, r=params.r, beta=average_beta)
    nu_s = tk.nu_from_mu(point, block, check=False)
    c = block.mass_factor()  # normalize to a unit functional
    prob = tk.MultipliedMeasure(nu_s, lambda n, c=c: c, "normalized")
    G = np.empty((len(basis), len(basis)), dtype=complex)
    for i, wi in enumerate(basis):
        ai = tk.adjoint(tk.AlgebraElement.from_word(wi))
        for j, wj in enumerate(basis):
            prod = tk.multiply(ai, tk.AlgebraElement.from_word(wj), params.theta)
            G[i, j] = tk.state_eval(prob, params, prod)
    return float(np.linalg.eigvalsh((G + G.conj().T) / 2).min())

print(f"  min eigenvalue, average beta = dynamics beta = 1.0: {gram_min_eig(1.0):+.4f}")
print(f"  min eigenvalue, overdamped average (beta = 1.7):    {gram_min_eig(1.7):+.4f}")
