"""Servable endpoints: named, wire-friendly design-point functions.

An endpoint is a module-level function whose kwargs are plain JSON
types (numbers, strings, booleans) and whose return value maps onto
JSON via :func:`repro.serve.protocol.to_jsonable`.  Both constraints
matter operationally: plain kwargs canonicalize into the same request
identity (:func:`bind`) whether the call arrives over the wire or in
process, and module-level functions pickle into the shard pool's worker
processes.

The built-in endpoints cover the paper's request shapes — a UCNN
runtime design point, a full-network simulation, and a layer
factorization — plus ``ping`` for connectivity checks.  Register
custom endpoints with :func:`register`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from repro.runtime.cache import keyword_signature, request_identity


class Endpoint(NamedTuple):
    """One registry record, read once by :func:`register`: the function,
    its replay flag, its parameters' defaults and its required names."""

    fn: Callable
    idempotent: bool
    defaults: dict
    required: frozenset


class BoundRequest(NamedTuple):
    """A request bound to its endpoint's signature (see :func:`bind`)."""

    fn: Callable
    kwargs: dict
    identity: str


_REGISTRY: dict[str, Endpoint] = {}


def register(name: str, fn: Callable | None = None, idempotent: bool = True):
    """Register an endpoint under ``name``; usable as a decorator.

    Args:
        name: wire name clients pass as ``endpoint``.
        fn: the endpoint function; when omitted, returns a decorator.
        idempotent: whether a retry after a *possibly delivered* request
            is safe.  The built-ins are pure reads (every call with the
            same kwargs computes the same value and mutates nothing), so
            the default is ``True``; endpoints with side effects must
            pass ``False`` so the fabric front-end never replays them
            down the replica preference list after a transport failure.

    Raises:
        ValueError: if the name is already taken by a different function.
    """
    def _add(func: Callable) -> Callable:
        existing = _REGISTRY.get(name)
        if existing is not None and existing.fn is not func:
            raise ValueError(f"endpoint {name!r} already registered")
        _REGISTRY[name] = Endpoint(func, bool(idempotent), *keyword_signature(func))
        return func

    return _add if fn is None else _add(fn)


def _lookup(name: str) -> Endpoint:
    endpoint = _REGISTRY.get(name)
    if endpoint is None:
        raise KeyError(f"unknown endpoint {name!r}; known: {sorted(_REGISTRY)}")
    return endpoint


def is_idempotent(name: str) -> bool:
    """Whether ``name`` may be safely replayed after an ambiguous failure.

    Unknown names answer ``False`` — the safe default for a router that
    must decide whether a possibly-delivered request can go to the next
    replica.
    """
    endpoint = _REGISTRY.get(name)
    return endpoint is not None and endpoint.idempotent


def resolve(name: str) -> Callable:
    """The endpoint function registered under ``name``.

    Raises:
        KeyError: for unknown names (the server maps this to an error
            response rather than dropping the connection).
    """
    return _lookup(name).fn


def bind(name: str, kwargs: dict) -> BoundRequest:
    """Bind a request to its endpoint's signature: the one request identity.

    Resolves ``name``, rejects a kwarg the function does not take or a
    required one left out, and fills in every default, so a call with
    its defaults spelled out and one without bind to the same kwargs.
    Their :func:`~repro.runtime.cache.request_identity` is what the
    front-end routes and catalogs on, and what the server routes to a
    shard, coalesces and keys the cache on.

    Raises:
        KeyError: for an unknown endpoint name.
        TypeError: for an unknown or a missing parameter name.
    """
    fn, _, defaults, required = _lookup(name)
    unknown = kwargs.keys() - defaults.keys() - required
    if unknown:
        raise TypeError(f"{name}() got unexpected keyword argument(s) {sorted(unknown)}")
    missing = required - kwargs.keys()
    if missing:
        raise TypeError(f"{name}() missing required argument(s) {sorted(missing)}")
    bound = {**defaults, **kwargs}
    return BoundRequest(fn, bound, request_identity(fn, bound))


def endpoint_names() -> tuple[str, ...]:
    """All registered endpoint names, sorted."""
    return tuple(sorted(_REGISTRY))


@register("ping")
def ping(payload: object = None) -> dict:
    """Liveness probe; echoes the payload.

    The server answers ``ping`` inline on the event loop (like
    ``_stats``), so it reflects loop health alone — it never consults
    the cache or dispatches to a shard.  This registry entry exists so
    ``_endpoints`` lists it and direct callers can invoke it.
    """
    return {"pong": payload}


@register("runtime_point")
def runtime_point(
    network: str = "lenet",
    layer_index: int = 0,
    group_size: int = 2,
    density: float = 0.5,
    num_unique: int = 17,
) -> float:
    """Optimistic normalized UCNN runtime of one (layer, G, density).

    The Figure 11 design point, parameterized by zoo network and conv
    layer index instead of a :class:`~repro.nn.tensor.ConvShape` so the
    request is expressible in plain JSON.

    Args:
        network: zoo network name (``lenet``/``alexnet``/``resnet50``).
        layer_index: conv-layer index, wrapped modulo the layer count.
        group_size: UCNN G (1, 2, or 4 — the Table II rows).
        density: weight density of the synthetic uniform weights.
        num_unique: U of the synthetic weights (17 = INQ-like).

    Returns:
        UCNN cycles normalized to the throughput-matched dense design.
    """
    from repro.experiments.common import network_shapes, ucnn_config_for_group, uniform_weight_provider
    from repro.sim.analytic import ucnn_layer_aggregate

    shapes = network_shapes(network)
    shape = shapes[layer_index % len(shapes)]
    weights = uniform_weight_provider(num_unique, density, tag="serve")(shape)
    config = ucnn_config_for_group(group_size)
    agg = ucnn_layer_aggregate(weights, shape, config)
    walks = shape.out_h * (-(-shape.out_w // config.vw))
    ucnn_cycles = walks * agg.entries
    dense_cycles = shape.out_h * shape.out_w * shape.k * shape.filter_size / 8
    return ucnn_cycles / dense_cycles


@register("simulate")
def simulate(
    network: str = "lenet",
    design: str = "ucnn-u17",
    density: float = 0.5,
    bits: int = 16,
) -> dict:
    """Full-network simulation summary (the ``repro simulate`` numbers).

    Args:
        network: zoo network name.
        design: CLI design name (``dcnn``, ``dcnn-sp``, ``ucnn-u17``, ...).
        density: weight density.
        bits: weight precision (8 or 16).

    Returns:
        dict with ``cycles``, per-level energies in uJ, and
        ``bits_per_weight``.
    """
    from repro.cli import DESIGNS
    from repro.experiments.common import INPUT_DENSITY, network_shapes, uniform_weight_provider
    from repro.sim.runner import simulate_network

    if design not in DESIGNS:
        raise ValueError(f"unknown design {design!r}; choose from {sorted(DESIGNS)}")
    config = DESIGNS[design](bits)
    shapes = network_shapes(network)
    u = config.num_unique if config.is_ucnn else 256
    provider = uniform_weight_provider(u, density)
    result = simulate_network(
        shapes, config, weight_provider=provider,
        weight_density=density, input_density=INPUT_DENSITY)
    energy = result.energy
    return {
        "cycles": result.cycles,
        "dram_uj": energy.dram_pj / 1e6,
        "l2_uj": energy.l2_pj / 1e6,
        "pe_uj": energy.pe_pj / 1e6,
        "total_uj": energy.total_pj / 1e6,
        "bits_per_weight": result.model_size.bits_per_weight,
    }


@register("factorize")
def factorize(
    k: int = 8,
    c: int = 32,
    r: int = 3,
    u: int = 17,
    group_size: int = 2,
    density: float = 0.9,
    seed: int = 0,
) -> dict:
    """Factorize a synthetic quantized layer; table stats + savings.

    Args:
        k/c/r: filter count, channels, and spatial size of the layer.
        u: unique-weight alphabet size.
        group_size: UCNN filter-group size G.
        density: weight density.
        seed: RNG seed for the synthetic weights.

    Returns:
        dict with per-group table stats, the dense multiply savings, and
        an ``engine`` sub-dict proving the compiled program's parity on
        a deterministic window batch.
    """
    import numpy as np

    from repro.core.factorized import FactorizedConv
    from repro.engine import execute_program
    from repro.quant.distributions import uniform_unique_weights

    rng = np.random.default_rng(seed)
    weights = uniform_unique_weights((k, c, r, r), u, density, rng)
    conv = FactorizedConv(weights.values, group_size=group_size)
    groups = []
    for tables in conv.groups[:4]:
        st = tables.stats()
        groups.append({
            "entries": st.num_entries,
            "multiplies": st.multiplies,
            "skip_bubbles": st.skip_bubbles,
            "mult_stalls": st.mult_stalls,
            "cycles": st.cycles,
        })
    counts = conv.op_counts(out_positions=1)
    # Execute (not just count): run the compiled program on a seeded
    # window batch and report parity against the dense product.
    windows = rng.integers(-8, 9, size=(8, c * r * r))
    engine_out = execute_program(conv.program, windows)
    dense = weights.values.reshape(k, -1) @ windows.T
    return {
        "num_unique": weights.num_unique,
        "density": weights.density,
        "groups": groups,
        "multiply_savings": counts.multiply_savings,
        "engine": {
            "windows": int(windows.shape[0]),
            "parity": bool(np.array_equal(engine_out, dense)),
            "program_entries": conv.program.num_entries,
        },
    }


@register("network_forward")
def network_forward(
    c: int = 8,
    size: int = 12,
    k1: int = 8,
    k2: int = 8,
    classes: int = 10,
    u: int = 17,
    group_size: int = 2,
    density: float = 0.9,
    seed: int = 0,
    batch: int = 4,
    threads: int = 1,
) -> dict:
    """Run a synthetic network through the fused engine, end to end.

    Builds a small conv/relu/pool/conv/relu/flatten/fc network with
    INQ-like synthetic weights, lowers it through
    :func:`repro.engine.compile_network`, executes a seeded image batch
    with the fused executor, and verifies bit-identity against
    ``Network.forward_batch`` — the dense reference (per-image im2col
    convolutions and the FC's int64 matmul), which never touches the
    engine, so a wrong program reads ``parity: false``.

    Args:
        c/size: input channels and spatial extent.
        k1/k2: filter counts of the two conv layers.
        classes: output features of the final FC layer.
        u: unique-weight alphabet size.
        group_size: UCNN filter-group size G of both convs and the FC.
        density: weight density.
        seed: RNG seed for weights and activations.
        batch: images in the batch.
        threads: fused-executor worker threads.

    Returns:
        dict with parity against the dense reference, an output checksum
        (stable across runs), the fused program's step count and cache
        key, and the batch/thread configuration.
    """
    import hashlib

    import numpy as np

    from repro.engine import compile_network, execute_network
    from repro.nn.layers import (
        ConvLayer,
        FlattenLayer,
        FullyConnectedLayer,
        MaxPoolLayer,
        ReluLayer,
    )
    from repro.nn.network import Network
    from repro.nn.tensor import ConvShape, TensorShape
    from repro.quant.distributions import uniform_unique_weights

    rng = np.random.default_rng(seed)
    s1 = ConvShape(name="conv1", w=size, h=size, c=c, k=k1, r=3, s=3, padding=1)
    conv1 = ConvLayer(s1, uniform_unique_weights(s1.weight_shape, u, density, rng).values)
    pooled = MaxPoolLayer(2, 2).output_shape(s1.output_shape)
    s2 = ConvShape(name="conv2", w=pooled.w, h=pooled.h, c=pooled.c, k=k2, r=3, s=3, padding=1)
    conv2 = ConvLayer(s2, uniform_unique_weights(s2.weight_shape, u, density, rng).values)
    features = s2.output_shape.size
    fc = FullyConnectedLayer(
        classes, features,
        uniform_unique_weights((classes, features), u, density, rng).values, name="fc",
    )
    network = Network("serve-fused", TensorShape(c, size, size), [
        conv1, ReluLayer("relu1"), MaxPoolLayer(2, 2, "pool1"),
        conv2, ReluLayer("relu2"), FlattenLayer("flatten"), fc,
    ])
    images = rng.integers(-16, 17, size=(batch, c, size, size))
    program = compile_network(network, group_size=group_size)
    fused = execute_network(program, images, threads=threads)
    reference = network.forward_batch(images)
    return {
        "parity": bool(np.array_equal(fused, reference)),
        "out_shape": list(fused.shape),
        "out_checksum": hashlib.sha256(np.ascontiguousarray(fused).tobytes()).hexdigest()[:16],
        "steps": program.num_steps,
        "program_key": program.key,
        "batch": int(batch),
        "threads": int(threads),
    }


@register("engine_forward")
def engine_forward(
    k: int = 8,
    c: int = 16,
    r: int = 3,
    u: int = 17,
    group_size: int = 2,
    density: float = 0.9,
    seed: int = 0,
    size: int = 10,
) -> dict:
    """Run a synthetic layer through the compiled engine, end to end.

    Builds INQ-like synthetic weights and a seeded integer activation
    tensor, executes the convolution via the compiled segment-scan
    program, and verifies the result against the dense im2col reference
    — the serving-facing proof that the factorized fast path computes
    the real thing.

    Args:
        k/c/r: filter count, channels, spatial size of the layer.
        u: unique-weight alphabet size.
        group_size: UCNN filter-group size G.
        density: weight density.
        seed: RNG seed for weights and activations.
        size: input height/width.

    Returns:
        dict with parity, an output checksum (stable across runs),
        program geometry, and the multiply savings of the layer.
    """
    import hashlib

    import numpy as np

    from repro.core.factorized import FactorizedConv
    from repro.quant.distributions import uniform_unique_weights

    rng = np.random.default_rng(seed)
    weights = uniform_unique_weights((k, c, r, r), u, density, rng)
    conv = FactorizedConv(weights.values, group_size=group_size, padding=1)
    inputs = rng.integers(-16, 17, size=(c, size, size))
    out = conv.forward(inputs)

    from repro.nn.reference import conv2d_im2col

    reference = conv2d_im2col(inputs, weights.values, stride=1, padding=1)
    counts = conv.op_counts(out_positions=out.shape[1] * out.shape[2])
    return {
        "parity": bool(np.array_equal(out, reference)),
        "out_shape": list(out.shape),
        "out_checksum": hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()[:16],
        "program_entries": conv.program.num_entries,
        "multiply_savings": counts.multiply_savings,
    }
