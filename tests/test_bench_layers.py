"""The benchmark's span tracer patches aqec by name: every name it traces must
exist, and restoring the tracer must put every original back."""

import os

import numpy as np

from aqec import experiments, lindblad

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_bench_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import layers
    import spans

    tracer = spans.Tracer()
    try:
        layers.install(tracer, full=True)  # a traced name that is gone raises here
        patched = list(tracer._restore)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
        # functions are wrapped at every aqec binding, methods in the class dict
        assert (experiments, "epsilon_exact") in {(o, a) for o, a, _ in patched}
        assert (lindblad.Superoperator, "apply") in {(o, a) for o, a, _ in patched}
        sz = np.diag([1.0, -1.0]).astype(complex)
        chan = lindblad.KrausChannel((np.eye(2, dtype=complex),))
        lind = lindblad.build_lindbladian([(sz, 0.1)]) + lindblad.recovery_lindbladian(chan, 1.0)
        lindblad.epsilon_exact(lind, chan, (np.eye(2)[0], np.eye(2)[1]), [0.0, 0.5],
                               directions=lindblad.cardinal_directions())
        names = {span[0] for span in tracer.spans}
        assert {"lindblad.build_lindbladian", "lindblad.epsilon_exact",
                "lindblad.Superoperator.apply"} <= names
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
