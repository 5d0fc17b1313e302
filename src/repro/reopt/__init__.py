"""Mid-query re-optimization (the regret watchdog).

The paper's feedback loop corrects distinct-page-count estimates *after*
a query finishes (§II-C): the next query benefits, the mis-planned one
pays full price.  This package closes the loop mid-flight.  A
:class:`~repro.reopt.watchdog.RegretWatchdog` subscribes to the
execution's monitor bundles and, at checkpoint boundaries, compares the
streaming actuals against the optimizer's estimates; when the divergence
crosses an incremental threshold (with hysteresis and a min-progress
guard so cheap queries never pay — the module's constants), it raises
:class:`~repro.common.errors.ReoptRequested` itself, after the caller's
cancellation token has been consulted at the same checkpoint.  The
:mod:`~repro.reopt.episode` runner then harvests the *partial* actuals
into lower-bound injections, re-optimizes through the existing
``build_optimizer`` path, and resumes where the consumed prefix is
replayable, otherwise restarts under the new plan — recording every
step as stages in the session's lifecycle trace.  The caller's token
governs the switched leg too.

Only this package may construct partial-observation injections or raise
``ReoptRequested`` (codelint rule R015).
"""

from repro.reopt.episode import ReoptEpisode, run_with_reopt
from repro.reopt.harvest import harvest_partials
from repro.reopt.watchdog import RegretWatchdog

__all__ = [
    "ReoptEpisode",
    "RegretWatchdog",
    "harvest_partials",
    "run_with_reopt",
]
