"""Reproduce the paper's Figure 7 walkthrough, cycle by cycle.

Figure 7 shows activation group reuse for G = 2 filters with weights
{a, b} over eight inputs {x, y, z, k, h, l, m, n}:

    filter k1:  a*(z + m + l + y + h) + b*(n + k + x)
    filter k2:  a*(z + m) + b*(l + y + h) + a*(n) + b*(k + x)

A DCNN with two lanes needs 16 multiplies; UCNN completes both dot
products in 6 multiplies with one shared, hierarchically-sorted input
indirection table.  This script builds those exact tables, steps the
UCNN lane simulator through them, and prints what happens each cycle.

Run:  python examples/figure7_walkthrough.py
"""

import numpy as np

from repro.core.hierarchical import build_filter_group_tables
from repro.sim.functional import DcnnLaneSimulator, UcnnLaneSimulator

# Concrete values for the symbolic weights; |a| > |b| so the canonical
# order (descending magnitude) visits a's groups first, as Figure 7 does.
A, B = 3, 2
NAMES = ["x", "y", "z", "k", "h", "l", "m", "n"]

# Weight layout over the eight input positions (matching Figure 7):
#   k1 = a*(z+m+l+y+h) + b*(n+k+x) ; k2 = a*(z+m) + b*(l+y+h) + a*n + b*(k+x)
#          x  y  z  k  h  l  m  n
k1 = np.array([B, A, A, B, A, A, A, B])
k2 = np.array([B, B, A, B, B, B, A, A])
filters = np.stack([k1, k2])

inputs = np.array([7, -3, 4, 10, 1, -6, 2, 5])  # x, y, z, k, h, l, m, n

tables = build_filter_group_tables(filters)
print("canonical weight order:", list(tables.canonical), f" (a={A}, b={B})")
print("\nshared iiT traversal (hierarchically sorted):")
print(f"{'step':>4} {'input':>6} {'k1 wt':>6} {'k2 wt':>6} {'k1 wiT':>7} {'k2 wiT':>7}")
for t in range(tables.num_entries):
    idx = tables.iit[t]
    print(f"{t:>4} {NAMES[idx]:>6} "
          f"{'a' if k1[idx] == A else 'b':>6} {'a' if k2[idx] == A else 'b':>6} "
          f"{int(tables.transitions[0, t]):>7} {int(tables.transitions[1, t]):>7}")

ucnn_trace = UcnnLaneSimulator(tables).run(inputs)
dcnn_trace = DcnnLaneSimulator(filters).run(inputs)

print("\nresults:")
print(f"  k1 = {ucnn_trace.outputs[0]}, k2 = {ucnn_trace.outputs[1]} "
      f"(dense: {dcnn_trace.outputs[0]}, {dcnn_trace.outputs[1]})")
assert np.array_equal(ucnn_trace.outputs, dcnn_trace.outputs)

print("\narithmetic (the paper counts 16 DCNN multiplies vs 6 for UCNN):")
print(f"  DCNN multiplies: {dcnn_trace.multiplies}")
print(f"  UCNN multiplies: {ucnn_trace.multiplies}")
print(f"  UCNN cycles: {ucnn_trace.cycles} "
      f"({ucnn_trace.entry_cycles} entries + {ucnn_trace.stall_cycles} multiplier stalls"
      f" + {ucnn_trace.bubble_cycles} skip bubbles)")
assert dcnn_trace.multiplies == 16
assert ucnn_trace.multiplies == 6

# ----------------------------------------------------------------------
# The compiled engine: the same tables, lowered to a segment-scan
# program and executed over many windows at once.
# ----------------------------------------------------------------------
import time

from repro.engine import compile_layer, execute_program

program = compile_layer([tables])
print("\ncompiled table program (the engine's lowering of the same tables):")
print("  " + program.describe().replace("\n", "\n  "))
# One term per level boundary where a filter's weight changes: the
# engine multiplies exactly where the PE does.
print(f"  multiplies per window: {program.cols.size} engine terms, "
      f"{ucnn_trace.multiplies} in the lane simulator")
assert program.cols.size == ucnn_trace.multiplies == 6
single = execute_program(program, inputs.reshape(1, -1))[:, 0]
assert np.array_equal(single, ucnn_trace.outputs)
print(f"  single-window engine run matches the table walk: k1 = {single[0]}, k2 = {single[1]}")

batch = np.random.default_rng(7).integers(-9, 10, size=(4096, 8))
start = time.perf_counter()
engine_out = execute_program(program, batch)
engine_s = time.perf_counter() - start
start = time.perf_counter()
walk_out = np.stack([tables.execute(w) for w in batch], axis=1)
walk_s = time.perf_counter() - start
assert np.array_equal(engine_out, walk_out)
print(f"\nover {batch.shape[0]:,} windows (6 multiplies each vs 16 dense):")
print(f"  per-entry walk: {walk_s * 1e3:7.1f} ms")
print(f"  compiled engine:{engine_s * 1e3:7.2f} ms  ({walk_s / engine_s:.0f}x faster, same bits)")
