"""The benchmark's span tracer patches aqec by name: every name it traces must
exist, restoring the tracer must put every original back, and the per-layer
metrics must read the spans of traced decodes."""

import math
import os

import numpy as np

from aqec import decoders, experiments, lindblad, paulis

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
        lindblad.epsilon_exact(lind, chan, (np.eye(2)[0], np.eye(2)[1]), [0.0, 0.5])
        names = {span[0] for span in tracer.spans}
        assert {"lindblad.build_lindbladian", "lindblad.epsilon_exact",
                "lindblad.Superoperator.apply"} <= names
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original


def test_bench_per_layer_reads_traced_mwpm_decodes(monkeypatch):
    # per_layer is the only caller of star_defects, plaquette_defects and .L
    monkeypatch.syspath_prepend(BENCH)
    import layers
    import spans

    dec = decoders.MwpmDecoder(paulis.toric_code(6))
    rng = np.random.default_rng(4)
    frames = [(1 << 3, 0), (0, 1 << 7), ((1 << 3) | (1 << 20), 1 << 9), (1 << 3, 0)]
    while len(frames) < 6:  # two frames past the DP cap, decoded by blossom
        x_bits = sum(1 << q for q in range(dec.code.n) if rng.random() < 0.45)
        if len(dec.star_defects(x_bits)) > decoders._DP_DEFECT_CAP:
            frames.append((x_bits, 0))
    blossom_calls = []
    blossom = decoders._blossom_min_matching

    def counting_blossom(dist):
        blossom_calls.append(len(dist))
        return blossom(dist)

    monkeypatch.setattr(decoders, "_blossom_min_matching", counting_blossom)
    tracer = spans.Tracer()
    try:
        layers.install(tracer, full=True)
        for x_bits, z_bits in frames:
            dec.correction_masks(x_bits, z_bits)
    finally:
        tracer.restore()
    assert len(blossom_calls) == 2 and min(blossom_calls) > decoders._DP_DEFECT_CAP
    metrics = layers.per_layer(tracer, range(len(tracer.spans)), tracer.self_times())
    assert metrics["decoders.mwpm.decodes"] == len(frames)
    assert metrics["decoders.mwpm.distinct_frame_ratio"] == len(set(frames)) / len(frames)
    for name in ("decoders.mwpm_dp.decodes_per_s", "decoders.mwpm_blossom.decodes_per_s"):
        assert math.isfinite(metrics[name]) and metrics[name] > 0
