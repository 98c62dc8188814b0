"""Campaign engine: runs sets of fault-injection experiments.

A *campaign* is a set of experiments using the same fault model on a given
workload (§III-E); the paper runs 182 campaigns per program (2 single-bit +
2 × 90 multi-bit clusters) with 10,000 experiments each.  This package
provides:

* :mod:`repro.campaign.config` — campaign configurations, experiment scales
  (SMOKE / BENCH / PAPER), and deterministic seeding;
* :mod:`repro.campaign.plan` — helpers that expand a program list into the
  campaign grids behind each figure of the paper;
* :mod:`repro.campaign.engine` — the execution engines (serial and
  multiprocess): one chunked-run driver over the work-kind table, with
  deterministic per-experiment seeding;
* :mod:`repro.campaign.scheduler` — the dispatch policy every transport
  shares (retries, bisection, quarantine, deadlines, graceful stop);
* :mod:`repro.campaign.supervisor` — the pipe transport: chunks on
  supervised worker processes (crash and hang detection);
* :mod:`repro.campaign.ledger` — durable write-ahead chunk ledger enabling
  ``--resume`` after a killed run;
* :mod:`repro.campaign.runner` — executes campaigns and collects results;
* :mod:`repro.campaign.results` — per-campaign aggregates and a queryable,
  JSON-serialisable result store.
"""

from repro.campaign.config import (
    BENCH_SCALE,
    CampaignConfig,
    ExperimentScale,
    PAPER_SCALE,
    SMOKE_SCALE,
)
from repro.campaign.engine import (
    DispatchRequest,
    DispatchTransport,
    EngineProgress,
    ExecutionEngine,
    InProcessTransport,
    MultiprocessEngine,
    RegistryProvider,
    SerialEngine,
    SupervisedPoolTransport,
)
from repro.campaign.plan import (
    ExhaustiveCampaignRequest,
    exhaustive_campaigns,
    full_paper_grid,
    multi_register_campaigns,
    same_register_campaigns,
    single_bit_campaigns,
)
from repro.campaign.ledger import ChunkLedger
from repro.campaign.results import (
    CampaignResult,
    ExhaustiveCampaignResult,
    ResultStore,
)
from repro.campaign.runner import CampaignRunner
from repro.campaign.scheduler import ChunkScheduler, ChunkTask, SupervisorStats
from repro.campaign.supervisor import ChunkSupervisor

__all__ = [
    "BENCH_SCALE",
    "CampaignConfig",
    "CampaignResult",
    "CampaignRunner",
    "ChunkLedger",
    "ChunkScheduler",
    "ChunkSupervisor",
    "ChunkTask",
    "DispatchRequest",
    "DispatchTransport",
    "EngineProgress",
    "ExecutionEngine",
    "ExhaustiveCampaignRequest",
    "ExhaustiveCampaignResult",
    "InProcessTransport",
    "exhaustive_campaigns",
    "ExperimentScale",
    "full_paper_grid",
    "multi_register_campaigns",
    "MultiprocessEngine",
    "PAPER_SCALE",
    "RegistryProvider",
    "ResultStore",
    "same_register_campaigns",
    "SerialEngine",
    "single_bit_campaigns",
    "SMOKE_SCALE",
    "SupervisedPoolTransport",
    "SupervisorStats",
]
