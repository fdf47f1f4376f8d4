#!/usr/bin/env python3
"""Traffic scenarios: declarative, replayable load generation.

Walks the :mod:`repro.traffic` layer end to end:

1. **compose** a scenario — a Poisson short-RPC class plus a Zipf
   heavy-tail bulk class, with seeded wire impairments;
2. **run** it open-loop on the functional two-engine testbed and read
   per-class offered vs. achieved load and latency percentiles;
3. **replay** it — same seed, bit-identical metrics — then change the
   seed and watch the run change;
4. **sweep** offered load on the calibrated model backend — register
   the scenario by name and run the ``traffic-load`` lab grid over it,
   the same path ``python -m repro traffic sweep`` and ``lab run
   traffic-load`` take — to get the latency-vs-load curve and its knee.

Run:  python examples/traffic_scenarios.py
"""

from repro.analysis.reporting import render_table, tabulate
from repro.lab.grids import traffic_load_grid
from repro.traffic import (
    Fixed,
    Impairments,
    Poisson,
    Scenario,
    TrafficClass,
    Zipf,
    detect_knee,
    register_scenario,
    run_scenario,
)


def main() -> None:
    # --- 1. compose ------------------------------------------------------
    # Two classes share one testbed: latency-sensitive RPCs and a Zipf
    # bulk class whose elephants squat on the wire.  One top-level seed
    # derives every RNG stream (arrivals, sizes, wire faults).
    scenario = Scenario(
        name="demo",
        seed=42,
        duration_s=300e-6,
        impairments=Impairments(drop_probability=0.002),
        classes=[
            TrafficClass(
                name="rpc",
                arrival=Poisson(rate=120e3),
                request=Fixed(64),
                response=Fixed(256),
                connections=6,
            ),
            TrafficClass(
                name="bulk",
                arrival=Poisson(rate=10e3),
                request=Zipf(s=1.1, minimum=1024, maximum=65536),
                response=Fixed(0),  # one-way stream
                connections=2,
            ),
        ],
    )
    print(scenario.describe())

    # --- 2. run functionally --------------------------------------------
    # Open loop: requests arrive on schedule whether or not the engines
    # keep up, so latency includes queueing from the *scheduled* arrival.
    result = run_scenario(scenario, audit=True)
    print()
    print(result.summary())
    print(result.table())

    # --- 3. replay -------------------------------------------------------
    again = run_scenario(scenario, audit=True)
    assert again.to_csv() == result.to_csv()
    assert again.frames_dropped == result.frames_dropped
    reseeded = run_scenario(scenario.with_seed(43))
    print(
        f"\nreplay: identical (down to {result.frames_dropped} dropped "
        f"frames); seed 43 gives {reseeded.offered} arrivals "
        f"vs {result.offered}"
    )

    # --- 4. sweep to the knee -------------------------------------------
    # The calibrated model backend runs the same schedules in
    # milliseconds, which makes dense latency-vs-load curves cheap.
    register_scenario("demo")(lambda: scenario)
    rows = traffic_load_grid(
        scenario="demo", loads=[0.5, 1, 2, 4, 8, 16, 24, 32], backend="model"
    ).records()
    knee = detect_knee(
        [row["offered_rps"] for row in rows], [row["p99_us"] for row in rows]
    )
    print()
    print("no knee detected" if knee is None
          else f"knee at load x{rows[knee]['load_scale']:g}")
    print(render_table(*tabulate(
        rows, ["load_scale", "offered_rps", "achieved_rps", "p50_us", "p99_us"]
    )))


if __name__ == "__main__":
    main()
