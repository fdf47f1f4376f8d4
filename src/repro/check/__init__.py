"""repro.check — project-specific static analysis and runtime sanitizers.

Three engines behind one CLI
(``python -m repro check {lint,race,lockstep,all}``):

* **simlint** (:mod:`repro.check.lint`, :mod:`repro.check.rules`) — an
  AST-based lint framework with repo-specific rules no off-the-shelf
  linter knows: seeded-RNG-only and no-wall-clock discipline in the
  simulated layers, wraparound-safe sequence comparisons through
  :mod:`repro.tcp.seq`, the ``if self.trace is not None`` near-zero-cost
  tracing contract, integer-picosecond state in the clocked layers, no
  unordered iteration feeding digests or cross-process exchanges (the
  dataflow pass in :mod:`repro.check.dataflow`), no process-identity
  leaks, no non-total-order heap keys, and no mutable default
  arguments.  Findings carry rule ids (F4T001–F4T004, F4T007–F4T011)
  and honour ``# f4t: noqa[F4T0xx]`` suppressions; each rule guards a
  real site of the tree (``tests/check/test_liveness.py``).  Every rule
  reads the program index
  (:mod:`repro.check.index`): each file parsed once, with one import
  table per module, which the reach and knob passes under
  ``tests/check`` read too.

* **race sanitizer** (:mod:`repro.check.race`) — a TSAN-style shadow
  state checker for the dual-memory TCB scheme (§4.2.3): every write to
  the TCB table and event table is recorded as (cycle, writer, slot,
  valid bits), and conflicting same-cycle writes from both writers,
  out-of-band valid-bit flips, lost updates during the evict/migration
  window (Fig 6), and TCB-cache lines that outlive or duplicate their
  DRAM copy are reported at the cycle they happen.

* **lockstep sanitizer** (:mod:`repro.check.lockstep`) — a shadow
  checker for the conservative-PDES contract in :mod:`repro.shard`:
  cross-cell arrivals must respect the epoch propagation lower bound,
  exchange-batch admission must be invariant to batch order, and
  per-cell fingerprints must merge complete and in cell order.

Both sanitizers share one base (:class:`repro.check.findings.Sanitizer`):
a findings list capped at ``MAX_FINDINGS``, shared counters, and views
that share state (a testbed engine's namespace, a shard cell).
"""

from .findings import Finding, LockstepFinding, RaceFinding
from .index import layer_of
from .lint import LintResult, lint_paths
from .lockstep import LockstepSanitizer, run_lockstep_check
from .race import RaceSanitizer, attach_sanitizer, run_race_check
from .rules import LintRule, SIM_LAYERS, all_rules

__all__ = [
    "Finding",
    "LockstepFinding",
    "LockstepSanitizer",
    "RaceFinding",
    "LintResult",
    "LintRule",
    "RaceSanitizer",
    "SIM_LAYERS",
    "all_rules",
    "attach_sanitizer",
    "layer_of",
    "lint_paths",
    "run_lockstep_check",
    "run_race_check",
]
