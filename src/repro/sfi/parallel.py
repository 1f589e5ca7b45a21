"""Parallel campaign execution.

"Multiple concurrent copies of the simulation environment can be run
relatively easily, which is not the case with the beam experiments"
(§2.2).  This module shards a campaign across worker processes; the shards
merge into one :class:`~repro.sfi.results.CampaignResult`.  A copy is
cheap because the machine is prepared once: when the caller holds a live
experiment of the same configuration (the CLI's probe), its prepared
model — checkpoints, ladder rungs, references and golden traces — is
shipped to the workers, which install it instead of re-running the
reference executions (see :func:`repro.sfi.campaign.prepared_model`).
Without one, each worker prepares its own copy from the (picklable)
campaign configuration.

Execution is delegated to :class:`~repro.sfi.supervisor.CampaignSupervisor`,
so shards are individually tracked jobs with timeouts, retries and
incremental journaling — see that module for the failure policy.  Because
every injection's RNG stream is keyed by ``(seed, site, occurrence)``
(never the shard index), the merged result is bit-identical for any
``workers`` value, including the serial fallback.
"""

from __future__ import annotations

from repro.sfi.campaign import CampaignConfig
from repro.sfi.results import CampaignResult
from repro.sfi.supervisor import CampaignSupervisor


def shard_sites(sites: list[int], shards: int) -> list[list[int]]:
    """Split a site list into ``shards`` contiguous, size-balanced slices."""
    if shards < 1:
        raise ValueError("need at least one shard")
    base, extra = divmod(len(sites), shards)
    slices = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        slices.append(sites[start:start + size])
        start += size
    return [s for s in slices if s]


def run_parallel_campaign(config: CampaignConfig, sites: list[int],
                          seed: int = 0, workers: int | None = None,
                          population_bits: int = 0,
                          **supervisor_options) -> CampaignResult:
    """Run ``sites`` as a supervised campaign across ``workers`` processes.

    Every worker runs its shard of the injection plan on an identical
    machine (same config, same AVP suite, same checkpoints): the
    prepared model of a live experiment with an equal ``config`` is
    shipped to the workers, which otherwise prepare it themselves.
    Results are bit-identical for any ``workers`` value.  When
    ``population_bits`` is 0 the workers' own latch population is used,
    so serial and parallel runs report the same coverage fractions.
    Extra keyword arguments (``journal``, ``resume``, ``shard_timeout``,
    ``max_retries``, ``progress``, ...) configure the supervisor.
    """
    supervisor = CampaignSupervisor(config, workers=workers,
                                    population_bits=population_bits,
                                    **supervisor_options)
    return supervisor.run(sites, seed)
