"""Three-tier static analysis for the reproduction (see docs/static_analysis.md).

* **Tier 1** (:mod:`repro.analysis.planlint`) lints physical plan trees
  between the optimizer and the monitor planner: structural soundness,
  estimate sanity, DPC bounds and injection provenance, shape-key hygiene
  (rules ``P001``–``P006``).  ``Session`` runs it on every plan it
  executes.
* **Tier 2** (:mod:`repro.analysis.codelint`) checks repo-wide invariants
  over the source tree with ``ast``: seeded RNG discipline, buffer-pool
  accounting discipline, float-comparison and wall-clock hygiene (rules
  ``R001``–``R015``).
* **Tier 3** (:mod:`repro.analysis.dataflow`) reasons *across* functions:
  a call graph plus per-function CFGs power ``C003`` (no blocking call in
  a service coroutine) and the flow rules ``F001``–``F003``
  (cancellation-checkpoint coverage of drive loops, admission-slot and
  IOContext release on all paths, no epoch bumps after a cancellation).

All tiers report through :class:`repro.analysis.findings.Finding` and the
shared text/JSON renderers; ``python -m repro.analysis`` runs tiers 2 and
3 over source files in one pass.  This package imports nothing itself, so
the engine, which needs only the plan linter, never loads the source
linters.
"""
