"""The benchmark's own calls into the program's layers, for traced passes.

Admission of a C-source request is split here into the same public
steps :meth:`repro.serve.PredictionServer.submit` runs internally —
``parse_c_source`` -> ``lower_and_extract`` -> feature encoding — so
each layer gets its own span; the finished graph is then submitted.
"""

from __future__ import annotations

import contextlib
import hashlib

from pbench.stats import median


def encode_source(source: str, kind: str | None = None, spans=None, request=None):
    """Mini-C source -> GraphData, exactly as the serving path encodes it."""
    from repro.dataset.builder import lower_and_extract
    from repro.dataset.features import FeatureEncoder, directive_features
    from repro.frontend.parser import parse_c_source

    def span(name):
        return spans.span(name, request) if spans is not None else contextlib.nullcontext()

    with span("frontend.parse"):
        program = parse_c_source(source)
    with span("ir.lower_extract"):
        function, graph, kind = lower_and_extract(program, kind)
    with span("dataset.encode"):
        return FeatureEncoder().encode(
            graph,
            directives=directive_features(function, graph),
            meta={"name": program.name, "kind": kind, "origin": "serve"},
        )


def topology_digest(graph) -> str:
    digest = hashlib.sha256()
    digest.update(graph.edge_index.tobytes())
    digest.update(graph.edge_type.tobytes())
    digest.update(str(graph.num_nodes).encode())
    return digest.hexdigest()


def traced_admit(ctx, requests, graphs: list):
    """An ``admit`` callback for :func:`pbench.serve_source.run_step` that
    records one span per layer and keeps the encoded graphs in ``graphs``."""
    spans = ctx.spans

    def admit(server, index, source):
        with spans.span("serve.request", request=index):
            graph = encode_source(source, kind=requests[index][0], spans=spans)
            graphs.append(graph)
            with spans.span("serve.submit"):
                return server.submit(graph)

    return admit


def span_ms(spans, name: str) -> float:
    """Mean duration of the ``name`` spans, in milliseconds."""
    durations = spans.durations(name)
    return 1000.0 * sum(durations) / len(durations) if durations else 0.0


def input_properties(graphs) -> dict:
    """Result-repeat and topology-sharing shares, node-count p50/max."""
    n = len(graphs)
    if not n:
        return {}
    fingerprints = {g.fingerprint() for g in graphs}
    topologies = {topology_digest(g) for g in graphs}
    nodes = [g.num_nodes for g in graphs]
    return {
        "graphs": n,
        "result_repeat_share": 1.0 - len(fingerprints) / n,
        "topology_sharing_share": 1.0 - len(topologies) / n,
        "nodes_p50": median(nodes),
        "nodes_max": max(nodes),
    }
