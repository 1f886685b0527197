# Shift radix system orbits and the finiteness certificate.
#
# Integer vectors step by tau(l) = (l_2, ..., -floor(r . l)), mirroring
# the base transformation exactly.  Reachability of the zero vector is
# digit finiteness of the mirrored element, so orbit diagrams decide
# expansion questions.

from betafin import (
    ShiftRadixSystem,
    export_graph,
    f1_certificate,
    in_f_beta,
    make_field,
    q_set,
    tau_preimages,
)

fam = make_field((2, -4, 4))  # x^3 - 4x^2 + 4x - 2
srs = ShiftRadixSystem(fam)
print("base:", fam)

# one orbit, step by step
vec = (0, 1)
path = [vec]
while path[-1] != (0, 0):
    path.append(srs.tau(path[-1]))
print("orbit of (0,1):", " -> ".join(map(str, path)))

# the closure of (0,1) under tau and its dual
graph = q_set(srs)
print("#Q =", graph.node_count())
print("P (nonzero tau-periodic):", sorted(graph.p_nodes))
print("(1,1) reaches zero?", in_f_beta(srs, (1, 1)))
print("preimages of (1,1):", tau_preimages(srs, (1, 1)))

# the sufficient condition for every natural number to expand finitely
cert = f1_certificate(graph)
print("certificate verdict:", cert.verdict)
print("  delta =", cert.delta, "| box slice R0 =", sorted(cert.r0))

# graphs export deterministically for regression diffs
dot = export_graph(graph, "dot")
print("\nDOT head:")
print("\n".join(dot.splitlines()[:6]))
print("...")

# a larger member of the same program: x^3 - 5x^2 + 5x - 3
big = ShiftRadixSystem(make_field((3, -5, 5)))
print("\n#Q for x^3-5x^2+5x-3:", q_set(big).node_count())
print("certificate:", f1_certificate(q_set(big)).verdict)
