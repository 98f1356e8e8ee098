"""
Free quandle words, bounded searches, and glued carriers
========================================================

The free quandle on n generators lives inside the free group: elements
are conjugates w g_i w^-1 with a trailing-syllable normal form.  Left
associated expressions give every element a product form, and exact
ring arithmetic works over the infinite basis.
"""

from quandlekit import (
    ZZ,
    RingElement,
    core_three_support_check,
    enumerate_elements,
    eval_expr,
    fq_idempotent_search,
    fq_op,
    generator,
    left_assoc_product,
    length,
    mul,
    parse_expr,
    render_expr,
    trivial_quandle,
    twisted_union_classify,
    union_cross_check,
    FreeQuandle,
)

# Generators and the operation a*b = b a b^-1 (sign -1 conjugates the
# other way).  Normal forms drop redundant trailing syllables, so the
# same element never prints two ways.
x, y = generator(0), generator(1)
w = fq_op(fq_op(x, y), fq_op(y, x))
print("(x*y)*(y*x) =", w, "| length:", length(w))

# Left-associated expressions multiply without ever leaving expression
# land; evaluating the rewritten expression hits the same element.
a = parse_expr("g0*g1^-1")
b = parse_expr("g1*g0")
prod = left_assoc_product(a, b)
print("product expression:", render_expr(prod))
print("evaluates consistently:", eval_expr(prod, 2) == fq_op(eval_expr(a, 2), eval_expr(b, 2)))

# Window counts grow geometrically: rank 2 has 2, 6, 18 elements at
# lengths 1, 2, 3.
for ln in (1, 2, 3):
    print("rank 2, length <=", ln, "->", len(enumerate_elements(2, ln)), "elements")

# Ring arithmetic over the free basis is exact; squaring a difference of
# generators spreads onto conjugates.
u = RingElement(ZZ, [(x, 1), (y, -1)])
print("\n(e_x - e_y)^2 =", mul(u, u, FreeQuandle(2)))

# The bounded search tests every candidate supported in the window; only
# the basis elements survive.
report = fq_idempotent_search(2, 2, 2, 1)
print("window search found:", [str(v) for v in report.idempotents])
print("tested:", report.candidates_tested, "| flags:", report.flags)

# Disjoint unions: enumerate, then explain each finding as a member of a
# union kind, rebuilt from parameters read off its blocks; anything
# unexplained is reported as a gap, not swept away.
t2, t3 = trivial_quandle(2), trivial_quandle(3)
accounting = union_cross_check([t2, t3], bound=1)
print("\nunion of trivial parts, box 1:")
print("    total:", accounting["total"], "| explained:", accounting["explained"],
      "| gaps:", len(accounting["observed_gaps"]))

# Twisting the union by single cycles keeps the blocks trivial and the
# idempotents classifiable; the closed form is cross-checked against a
# complete mod-7 enumeration, member by member.
out = twisted_union_classify(t2, t3, [1, 0], [1, 2, 0], modulus=7)
print("\ntwisted union cross-check:", out["cross_check"],
      "| enumerated:", out["enumerated"], "| expected:", out["expected_in_scope"])

# Three-point supports over odd single-factor core tables: the bounded
# search confirms nothing beyond the basis in these windows.
check = core_three_support_check([5], 2)
print("\ncore([5]) three-point window: nontrivial =", check["nontrivial"],
      "| tested:", check["candidates_tested"])
