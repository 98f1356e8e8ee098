"""
Coverings and structured idempotent families
============================================

A covering is a surjection whose fibers share right translations.  Over
the order-6 table covering the order-3 one, fiber data assembles into
idempotents with arbitrarily large coefficients, classifies the boxed
findings completely, and produces zero divisors.
"""

from quandlekit import (
    QuandleHom,
    RingElement,
    ZZ,
    check_covering,
    core_quandle,
    covering_classify,
    covering_family_params,
    covering_family_verify,
    covering_idempotent,
    dihedral_even_family,
    dihedral_quandle,
    enumerate_boxed_Z,
    find_coverings,
    right_zero_divisor_from_fiber,
)

r6 = core_quandle([6])
r3 = dihedral_quandle(3)

# Reducing indices mod 3 is a covering; the checker returns the fiber
# partition after verifying surjectivity and the translation condition.
cov = check_covering(QuandleHom(r6, r3, [0, 1, 2, 0, 1, 2]))
print("fibers:", cov.fibers)

# Searching for all coverings between the two tables finds the six
# relabelings of the same projection.
found = find_coverings(r6, r3)
print("coverings onto the order-3 table:", len(found))

# Family parameters: one unit fiber carrying coefficient sum 1, any
# number of fibers carrying coefficient sum 0.  Assembly mirrors the
# zero-sum masses through the base point, and the result is idempotent
# by construction no matter how large the entries are.
params = covering_family_params(
    cov, ZZ, unit_fiber=1, unit_coeffs={4: 37, 1: -36}, base_point=4,
    zero_sum_coeffs={0: {0: 1000, 3: -1000}},
)
u = covering_idempotent(cov, params)
print("\nassembled idempotent:", u)

# The verifier certifies every structural choice for every coefficient
# value with one linear check per (fiber, theta_S class), and counts the
# structures and the {-1,0,1} grid cases they stand for.
report = covering_family_verify(cov)
print("verified:", report.verified, "| structures:", report.structures, "| cases:", report.cases)

# Classification runs in the other direction: it recognizes whether a
# given idempotent is assembled from fiber data, and extracts the data.
w = RingElement(ZZ, [(0, 1), (1, 1), (2, 1), (3, -1), (5, -1)])
res = covering_classify(w, cov)
print("\nclassified:", res.in_family, "| unit fiber:", res.params.unit_fiber,
      "| base point:", res.params.base_point)

# Everything found by the box search over the big table is in the family:
# compare against the closed-form construction indexed by one fiber
# choice, a unit split, and reflection weights.
boxed = enumerate_boxed_Z(r6, 2)
family = set()
for j in range(3):
    for beta in range(-3, 4):
        for a0 in range(-3, 4):
            for a1 in range(-3, 4):
                v = dihedral_even_family(3, j, beta, [a0, a1])
                if all(abs(int(c)) <= 2 for _, c in v.coeffs):
                    family.add(v)
print("\nbox search matches the closed form exactly:", set(boxed.idempotents) == family)

# Zero-sum mass on a single fiber annihilates every right product.
witness = right_zero_divisor_from_fiber(cov, 0, [1, -1])
print("zero divisor:", witness["element"], "| verified:", witness["verified"])
