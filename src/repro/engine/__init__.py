"""repro.engine — compiled segment-scan execution for factorized tables.

The engine makes the factorized path the *fast* path, at two scales:

* **Per layer** — an offline compiler (:mod:`repro.engine.program`)
  lowers a layer's :class:`~repro.core.hierarchical.FilterGroupTables`
  into one flat table program — gather indices, and per filter one run
  of telescoped terms, a coefficient per level boundary where its weight
  changes — and the segment-scan kernel
  (:mod:`repro.engine.executor`) evaluates the program over all windows
  and all filter groups of a layer, one group's prefix sum at a time,
  gathering each window's activations by offset from wherever they lie
  (a window matrix, or a zero-padded activation tensor), bit-exact
  against both the per-entry walk and the dense im2col reference.

* **Per network** — :mod:`repro.engine.fusion` stitches every conv and
  FC layer's program (an FC layer runs as a 1x1 conv) into one
  :class:`NetworkProgram` with a preallocated activation-buffer plan
  and a thread pool splitting each layer's windows across threads,
  each thread scanning its own output columns.  It is the only
  image-batch driver:
  a batch reaches the kernel one way, :func:`compile_network` then
  :func:`execute_network`, and comes out bit-exact against stacking the
  engine-free per-image ``Network.forward``.

Typical use::

    from repro.engine import (
        compile_network, compiled_layer_for, execute_network, execute_program,
    )

    compiled = compiled_layer_for(weights, group_size=2)
    outputs = execute_program(compiled.program, windows)       # (K, n)

    program = compile_network(network)                         # whole-network IR
    batch_out = execute_network(program, batch, threads=4)     # (N, K, oh, ow)

A program runs only through those two functions and
``FactorizedConv.forward`` (one image); each calls the one segment
scan, :func:`repro.engine.executor.scan`.

Programs are memoized in a process-wide cache — per-layer programs
under ``layer:...`` keys, fused networks under ``net:...`` keys
(schemas in ``docs/api.md``) — so sweeps and serve workers never
re-lower weights they have seen.  The cache is
single-flighted (concurrent misses compile once; everyone gets the
winner's object) and can be backed by a durable artifact store
(:mod:`repro.engine.artifacts`: a miss loads the serialized program
from this node's artifacts or the cache peer before compiling, and a
fresh compile is written back, so a program compiled anywhere in the
fleet loads everywhere else with zero compiles).
:mod:`repro.engine.artifacts` is imported on demand — it pulls in the
runtime storage layer, which plain engine users don't need.
"""

from repro.engine.executor import execute_program
from repro.engine.fusion import (
    NetworkProgram,
    compile_network,
    execute_network,
    network_program_key,
)
from repro.engine.program import (
    CompiledLayer,
    TableProgram,
    cached_programs,
    clear_program_cache,
    compile_layer,
    compiled_layer_for,
    get_artifact_tier,
    layer_program_key,
    program_cache_info,
    set_artifact_tier,
    weights_fingerprint,
)

__all__ = [
    "CompiledLayer",
    "NetworkProgram",
    "TableProgram",
    "cached_programs",
    "clear_program_cache",
    "compile_layer",
    "compile_network",
    "compiled_layer_for",
    "execute_network",
    "execute_program",
    "get_artifact_tier",
    "layer_program_key",
    "network_program_key",
    "program_cache_info",
    "set_artifact_tier",
    "weights_fingerprint",
]
