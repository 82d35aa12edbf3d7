"""The benchmark tracer against the package: every name it patches exists,
its classify counter reads mark codes, and uninstall restores every name."""

import importlib.util
from pathlib import Path

from semitick import hazards

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_counts_classify_and_uninstall_restores(symmetric_layout):
    classify = hazards.MarkLayout.classify
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
        assert hazards.MarkLayout.classify is not classify
        # past the total mass: thinned; at 0.25: the continuation big jump
        assert symmetric_layout.classify(2, 0.0, 1e9) == hazards.THINNED
        assert symmetric_layout.classify(2, 0.0, 0.25) == hazards.BIG + 1
    finally:
        tracer.uninstall()
    assert tracer.counts["hazards.classify.calls"] == 2
    assert tracer.counts["hazards.classify.calls.accepted"] == 1
    assert len(patched) > 1
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    assert hazards.MarkLayout.classify is classify
