"""Exact rewiring decisions under an edit budget, with exact rational thresholds.

The decision solvers enumerate every edit set up to the budget and test the
objective exactly: enumerated conductance, or an integer inertia count for the
eigenvalue comparison, which floating point cannot get wrong even at the
boundary.
"""

from fractions import Fraction

from rewirelab import (
    GrocInstance,
    GrosInstance,
    complete_graph,
    cycle_graph,
    decide_groc,
    decide_gros,
    decision_to_json,
    exact_mu2_leq,
)

k4 = complete_graph(4)
c4 = cycle_graph(4)

# Can K4 reach conductance 0.5 with zero edits?  Yes: phi(K4) = 2/3 already.
print(decision_to_json(decide_groc(GrocInstance(k4, 0, Fraction(1, 2))), "conductance"))

# Conductance 1.0 is out of reach for any 4-vertex graph within 2 edits of C4;
# the solver proves it by exhausting all 407 candidate edit sets.
d = decide_groc(GrocInstance(c4, 2, Fraction(1)))
print(f"C4, K=2, phi0=1: answer={d.answer}, best achievable phi = {d.value_achieved:.4f}")

# The spectral problem: mu2 of the C4 propagation matrix is exactly 1/3.
# A threshold of exactly 1/3 is a yes; a hair below is a no.  The exact
# inertia count resolves both without ever computing the eigenvalue numerically.
print("mu2(C4) <= 1/3:        ", exact_mu2_leq(c4, Fraction(1, 3)))
print("mu2(C4) <= 33333/100000:", exact_mu2_leq(c4, Fraction(33333, 100000)))

# The same exactness drives the budgeted solver.
d = decide_gros(GrosInstance(c4, 1, Fraction(0)))
print(f"C4, K=1, tau=0: answer={d.answer}, witness={d.witness}, mu2 reached ~ {d.value_achieved:.4f}")

# Absolute mode compares the second-largest |eigenvalue| instead; C4 is
# bipartite-free of that distinction at 1/3 since |-1/3| = 1/3.
print("absolute mode at 1/3:", exact_mu2_leq(c4, Fraction(1, 3), mode="absolute"))
