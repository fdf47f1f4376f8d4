"""The repo benchmark: six seeded workloads, end-to-end host-cost metrics,
and an outside-in per-layer span ledger.  See bench/README.md."""
