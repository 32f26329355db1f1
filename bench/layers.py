"""Which aqec functions the benchmark times, and the metrics derived from the spans.

The untraced run times only the Monte Carlo estimators (a few calls per
round), which the end-to-end ``mc_samples_per_s`` needs.  The traced run adds
every public function the per-layer metrics read.
"""

from __future__ import annotations

import numpy as np

from aqec import bounds, cli, decoders, experiments, lindblad, trajectories

DP_DEFECT_CAP = 12  # decodes above this many defects in a sector go to blossom

FRAME_ESTIMATORS = ("estimate_alpha", "check_assumption2", "estimate_epsilon")
VIOLATION_ESTIMATOR = "estimate_faithful_violation"
CLOSED_FORMS = ("theorem2_bound", "theorem4_bound", "p_asymptotic")
BUILDERS = ("stabilizer_recovery", "build_recovery", "build_lindbladian")


def _samples(args, kwargs, result):
    return result.n_samples


def _mwpm_frame(args, kwargs, result):
    # defects are counted after the run, so the count costs no traced time
    return args


def describe(name, info) -> str:
    """Text for a span's info column."""
    if name == "decoders.MwpmDecoder.correction_masks":
        dec, x_bits, z_bits = info
        return f"L={dec.L} x={x_bits:#x} z={z_bits:#x}"
    return "" if info is None else str(info)


def _levels(args, kwargs, result):
    return args[0] if args else kwargs["h"]


def _evals(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["t"]))


def install(tracer, full: bool) -> None:
    for name in FRAME_ESTIMATORS + (VIOLATION_ESTIMATOR,):
        tracer.patch_function(trajectories, name, f"trajectories.{name}", _samples)
    if not full:
        return
    tracer.patch_function(bounds, "p_exact_quadrature", "bounds.p_exact_quadrature")
    tracer.patch_method(decoders.MwpmDecoder, "correction_masks",
                        "decoders.MwpmDecoder.correction_masks", _mwpm_frame)
    tracer.patch_method(decoders.LookupDecoder, "correction_masks",
                        "decoders.LookupDecoder.correction_masks")
    tracer.patch_method(lindblad.Superoperator, "apply", "lindblad.Superoperator.apply")
    tracer.patch_function(lindblad, "epsilon_exact", "lindblad.epsilon_exact")
    for name in BUILDERS:
        tracer.patch_function(lindblad, name, f"lindblad.{name}")
    tracer.patch_function(bounds, "solve_recurrence", "bounds.solve_recurrence", _levels)
    for name in CLOSED_FORMS:
        tracer.patch_function(bounds, name, f"bounds.{name}", _evals)
    tracer.patch_function(experiments, "run", "experiments.run")
    tracer.patch_function(experiments, "verify", "experiments.verify")
    tracer.patch_function(cli, "main", "cli.main")


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def mc_samples_per_s(tracer, window) -> float:
    """Samples per second inside the Monte Carlo estimators, whoever calls them."""
    samples = seconds = 0.0
    for i in window:
        name, _, start, end, info = tracer.spans[i]
        if name.startswith("trajectories."):
            samples += info or 0
            seconds += end - start
    return _rate(samples, seconds)


def per_layer(tracer, window, self_time) -> dict:
    by_name = {}
    for i in window:
        by_name.setdefault(tracer.spans[i][0], []).append(i)

    def spans(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def busy(*names):
        return sum((tracer.spans[i][3] - tracer.spans[i][2] for i in spans(*names)), 0.0)

    def counted(*names):
        return sum(tracer.spans[i][4] or 0 for i in spans(*names))

    def self_s(*names):
        return sum((self_time[i] for i in spans(*names)), 0.0)

    mwpm = spans("decoders.MwpmDecoder.correction_masks")
    defects = {}  # (L, x, z) -> defect count of the larger sector
    dp, blossom = [], []
    for i in mwpm:
        dec, x_bits, z_bits = tracer.spans[i][4]
        key = (dec.L, x_bits, z_bits)
        if key not in defects:
            defects[key] = max(len(dec.star_defects(x_bits)), len(dec.plaquette_defects(z_bits)))
        (dp if defects[key] <= DP_DEFECT_CAP else blossom).append(i)

    def duration(indices):
        return sum(tracer.spans[i][3] - tracer.spans[i][2] for i in indices)

    frame = tuple(f"trajectories.{n}" for n in FRAME_ESTIMATORS)
    violation = f"trajectories.{VIOLATION_ESTIMATOR}"
    closed = tuple(f"bounds.{n}" for n in CLOSED_FORMS)
    rhs_evals = len(spans("lindblad.Superoperator.apply"))
    eps_busy = busy("lindblad.epsilon_exact")
    return {
        "decoders.mwpm_dp.decodes_per_s": _rate(len(dp), duration(dp)),
        "decoders.mwpm_blossom.decodes_per_s": _rate(len(blossom), duration(blossom)),
        "decoders.mwpm.decodes": len(mwpm),
        "decoders.mwpm.distinct_frame_ratio": _rate(len(defects), len(mwpm)),
        "decoders.lookup.decodes_per_s":
            _rate(len(spans("decoders.LookupDecoder.correction_masks")),
                  busy("decoders.LookupDecoder.correction_masks")),
        "trajectories.frame.samples_per_s": _rate(counted(*frame), busy(*frame)),
        "trajectories.frame.self_s": self_s(*frame),
        "trajectories.violation.samples_per_s": _rate(counted(violation), busy(violation)),
        "lindblad.epsilon_exact.busy_s": eps_busy,
        "lindblad.rhs_evals": rhs_evals,
        "lindblad.rhs_evals_per_s": _rate(rhs_evals, eps_busy),
        "lindblad.build.busy_s": busy(*(f"lindblad.{n}" for n in BUILDERS)),
        "bounds.p_exact_quadrature.busy_s": busy("bounds.p_exact_quadrature"),
        "bounds.p_exact_quadrature.calls": len(spans("bounds.p_exact_quadrature")),
        "bounds.solve_recurrence.levels_per_s":
            _rate(counted("bounds.solve_recurrence"), busy("bounds.solve_recurrence")),
        "bounds.closed_form.evals_per_s": _rate(counted(*closed), busy(*closed)),
        "experiments.run.self_s": self_s("experiments.run"),
        "experiments.verify.busy_s": busy("experiments.verify"),
        "cli.bounds.self_s": self_s("cli.main"),
    }
