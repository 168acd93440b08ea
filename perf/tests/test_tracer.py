"""The outside-in tracer: self time, binding patches, output neutrality."""

import sys
import time

import repro.graphs.csr as csr
import repro.nibble.sweep as sweep_module
from repro.decomposition import expander_decomposition
from repro.graphs.generators import ring_of_cliques

from tracer import Tracer, layer_metrics
from workloads import _decomposition_digest


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    outer = tracer.wrap("outer", outer_body)
    tracer.wrap("job", outer)()
    spans = {name: (parent, duration, own) for name, parent, _, duration, own in tracer.spans}
    assert spans["inner"][0] == "outer" and spans["outer"][0] == "job"
    assert spans["job"][0] is None
    parent, duration, own = spans["outer"]
    assert abs(own - (duration - spans["inner"][1])) < 1e-9
    assert 0.005 < own < 0.018
    assert spans["job"][2] < 0.005


def test_install_patches_every_binding_and_uninstall_restores():
    # ``repro.nibble.nibble`` as an attribute is the shadowing function
    nibble_module = sys.modules["repro.nibble.nibble"]
    original_build = sweep_module.build_sweep
    original_from_graph = csr.CSRGraph.__dict__["from_graph"]
    tracer = Tracer()
    tracer.install()
    try:
        # the by-name import in repro.nibble.nibble is patched too
        assert nibble_module.build_sweep is sweep_module.build_sweep
        assert sweep_module.build_sweep.__wrapped__ is original_build
        assert isinstance(csr.CSRGraph.__dict__["from_graph"], classmethod)
    finally:
        tracer.uninstall()
    assert sweep_module.build_sweep is original_build
    assert nibble_module.build_sweep is original_build
    assert csr.CSRGraph.__dict__["from_graph"] is original_from_graph


def test_traced_outputs_match_untraced():
    graph = ring_of_cliques(4, 6)
    plain = _decomposition_digest(expander_decomposition(graph, 0.1, 0.1, seed=7))
    tracer = Tracer()
    tracer.install()
    try:
        begin = time.perf_counter()
        traced = tracer.wrap("job", expander_decomposition)(graph, 0.1, 0.1, seed=7)
        seconds = time.perf_counter() - begin
    finally:
        tracer.uninstall()
    assert _decomposition_digest(traced) == plain
    layers = layer_metrics(tracer, 1, [seconds])
    assert layers["nibble.scan_dict.calls"] > 0
    assert layers["walks.walk_step.calls"] > 0
    assert layers["shared.publish.calls"] == 0
    assert 0 < layers["trace.coverage"] <= 1
