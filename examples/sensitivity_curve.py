#!/usr/bin/env python3
"""Contention-sensitivity characterisation, paper Section V style.

For each requested workload this example:

1. runs the isolation context,
2. sweeps the 12 paper ``P_induce`` configurations,
3. builds the weighted-IPC-vs-interference-rate contention curve (CRG
   grouped),
4. classifies sensitivity at a 5% Tolerable Performance Loss via the
   Sensitive-Curve Population, and
5. prints the curve as ASCII alongside its C²AFE features (knee / trend /
   sensitivity).

Usage::

    python examples/sensitivity_curve.py [workload ...]
"""

import sys

from repro import PAPER_PINDUCE_SWEEP, scaled_config
from repro.analysis import classify, contention_curve, extract_features
from repro.experiments.plan import execute_jobs
from repro.experiments.registry import PlanContext, bundle_from_results, plan_bundle
from repro.sim import ExperimentScale

DEFAULT_WORKLOADS = ["470.lbm", "605.mcf", "435.gromacs", "453.povray"]
SCALE = ExperimentScale(warmup_instructions=10_000, sim_instructions=40_000,
                        sample_interval=4_000)


def ascii_curve(curve: dict, width: int = 40) -> str:
    lines = []
    for rate, weighted in sorted(curve.items()):
        bar = "#" * int(width * max(0.0, min(1.2, weighted)) / 1.2)
        lines.append(f"  rate {rate:4.1f} | {bar} {weighted:.3f}")
    return "\n".join(lines)


def main() -> None:
    names = sys.argv[1:] or DEFAULT_WORKLOADS
    # Isolation plus the sweep: the shared bundle plan without 2nd-Trace pairs.
    ctx = PlanContext(config=scaled_config(), scale=SCALE, suite=names,
                      p_values=PAPER_PINDUCE_SWEEP, panel_size=0)
    print(f"running isolation and {len(PAPER_PINDUCE_SWEEP)} P_induce "
          f"configurations per workload...")
    bundle = bundle_from_results(ctx, execute_jobs(plan_bundle(ctx)))

    for name in names:
        results = bundle.pinte_results(name)
        isolation = bundle.isolation[name]
        curve = contention_curve(results, isolation.ipc)
        report = classify(name, results, isolation)
        print(f"\n=== {name} ===")
        print(ascii_curve(curve))
        if len(curve) >= 2:
            features = extract_features(curve)
            print(f"  C2AFE: knee at rate {features.knee:.2f}, "
                  f"trend {features.trend:+.3f}, "
                  f"sensitivity {features.sensitivity:.3f}")
        print(f"  classification: {report.classification.upper()} "
              f"(SCP {report.scp:.0%} of {report.n_samples} samples at "
              f"TPL {report.tpl:.0%})")


if __name__ == "__main__":
    main()
