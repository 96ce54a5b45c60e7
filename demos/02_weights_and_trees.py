"""
Vertex weights: which subfield an element generates
====================================================

Every vertex a carries weight(a) = [F_p(a) : F_p].  For strictly
preperiodic vertices the weight is a function of the preperiod alone,
which makes weight tables for astronomically large fields (here
F_{53^18}, about 10^31 elements) a finger exercise.
"""

import io

from chebdyn import (D1, D2, build_graph, element_degree, export_dot,
                     make_field, predict_weight, structure_params)

# the controlling parameters live in the base field
params = structure_params(3, 53, 1)
print(f"mu = {params.mu}, D1 = {params.d1}, D2 = {params.d2}, "
      f"v = nu_3(D1) = {params.v}")

# weight table over F_{53^18} = F_{53^(2*mu*3^2)}: twelve cells, no
# enumeration (preperiod 0 rows are periodic points of weight 1)
print("\npreperiod | D1-side weight | D2-side weight")
print(f"{0:9} | {1:14} | {1:14}")
for rho in range(1, 6):
    w1 = predict_weight(params, D1, rho, 2)
    w2 = predict_weight(params, D2, rho, 2)
    print(f"{rho:9} | {w1:14} | {w2:14}")

# sanity on an enumerable cousin: F_{5^6}, same mechanism
sp = structure_params(3, 5, 1)
ctx = make_field(5, 6)
g = build_graph(3, ctx)
bad = 0
for i in range(ctx.q):
    if g.pper[i] == 0:
        continue
    d0 = int(g.divisor[i])
    while d0 % 3 == 0:
        d0 //= 3
    if d0 <= 2 or sp.d1 % d0 == 0:
        branch = D1
    elif sp.d2 % d0 == 0:
        branch = D2
    else:
        continue
    if predict_weight(sp, branch, int(g.pper[i]), 1) \
            != element_degree(ctx.decode(i)):
        bad += 1
print(f"\nF_(5^6): weight formula vs Frobenius orbit mismatches: {bad}")

# a Graphviz rendering of one component, colored by weight
g29 = build_graph(2, make_field(29, 1))
out = io.StringIO()
export_dot(g29, out, component_filter=15)
dot = out.getvalue()
print(f"\nDOT text for the divisor-15 component of T_2 on F_29 "
      f"({dot.count('label=')} vertices); render with `dot -Tpng`:")
print("\n".join(dot.splitlines()[:6]) + "\n  ...")
