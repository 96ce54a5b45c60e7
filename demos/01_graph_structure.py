"""
The functional graph of a Chebyshev map over a prime field
===========================================================

Every element of F_53 gets one outgoing edge a -> T_3(a).  The resulting
graph is rigidly structured: cycles whose lengths come from
multiplicative orders, decorated with complete ternary trees.
"""

from chebdyn import (build_graph, make_field, predict_summary, summarize,
                     verify_instance)

# build the graph of T_3 = x^3 - 3x on F_53 by direct evaluation
ctx = make_field(53, 1)
g = build_graph(3, ctx)

# 2 and -2 are fixed points of every odd-degree map
print("T_3(2) = 2:", g.succ[2] == 2)
print("T_3(-2) = -2:", g.succ[51] == 51)

# one row per divisor class, exactly the published tabulation
enumerated = summarize(g)
print()
print(enumerated.table_str())

# the same table from closed forms alone: no enumeration happened here
predicted = predict_summary(3, 53, 1)
print()
print("closed-form prediction matches enumeration row for row:",
      enumerated.rows == predicted.rows)

# the one-stop checker runs every comparison at once
report = verify_instance(3, 53, 1)
print(report.table_str())
