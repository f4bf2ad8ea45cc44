"""Cost-guided transformation auto-tuning (the paper's §8 outlook).

This package searches the space of legal transformation sequences over
an SDFG and returns the best-scoring variant, instead of trusting the
fixed recipe of ``auto_optimize``:

* :mod:`repro.tuning.search` — greedy and beam-search drivers over the
  deterministic candidate enumeration, applied transactionally through
  the guarded optimizer (:func:`tune`, :class:`TuningConfig`,
  :class:`TuningResult`);
* :mod:`repro.tuning.cost` — the cost-provider interface with a
  *measured* implementation (execute + instrumentation wall-clock) and
  an *analytic* one (machine-model simulation for cpu/gpu/fpga);
* :mod:`repro.tuning.cache` — a persistent content-addressed cache of
  winning histories (canonical SDFG hash + config + cost key), with LRU
  eviction, corrupt-entry tolerance, and instrumented hit/miss counters;
* :mod:`repro.tuning.report` — the :class:`TuningReport` trace recording
  every candidate, score, and pruning decision.

Entry points::

    from repro.tuning import tune
    result = tune(sdfg, cost="measured", cache_dir=".tuning-cache")
    result.sdfg          # the winning graph; result.history replays it
    result.report.render()

or in place via ``auto_optimize(sdfg, strategy="search")``, or from the
shell via ``python -m repro.tune``.
"""

from repro.tuning.cache import CACHE_SCHEMA_VERSION, TuningCache
from repro.tuning.cost import (
    AnalyticCost,
    CostProvider,
    MeasuredCost,
    resolve_provider,
)
from repro.tuning.cutout import (
    Cutout,
    CutoutError,
    execute_cutouts,
    extract_state_cutout,
    extract_state_cutouts,
    group_cutouts,
    grouping_hash,
)
from repro.tuning.parallel import CUTOUT_POOL_EXCLUDED, cutout_pool, tune_cutouts
from repro.tuning.report import CandidateRecord, TuningReport, history_label
from repro.tuning.search import (
    DEFAULT_POOL_EXCLUDED,
    TuningConfig,
    TuningResult,
    default_pool,
    tune,
)

__all__ = [
    "AnalyticCost",
    "CACHE_SCHEMA_VERSION",
    "CUTOUT_POOL_EXCLUDED",
    "CandidateRecord",
    "CostProvider",
    "Cutout",
    "CutoutError",
    "DEFAULT_POOL_EXCLUDED",
    "MeasuredCost",
    "TuningCache",
    "TuningConfig",
    "TuningReport",
    "TuningResult",
    "cutout_pool",
    "default_pool",
    "execute_cutouts",
    "extract_state_cutout",
    "extract_state_cutouts",
    "group_cutouts",
    "grouping_hash",
    "history_label",
    "resolve_provider",
    "tune",
    "tune_cutouts",
]
