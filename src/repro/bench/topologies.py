"""The paper's two testbeds as simulator topologies.

LAN (Fig. 7): CloudLab — 10 groups × 3 replicas on 30 machines plus client
machines, 2 Gb links, ≈0.1 ms round trip.  We model each process on its own
site with a 0.05 ms one-way delay.

WAN (Fig. 8): Google Cloud — three data centres (Oregon, N. Virginia,
England) with round trips of 60/75/130 ms; every group has one replica per
data centre, so each data centre holds a complete copy of the data.  We
place member ``i`` of every group in data centre ``i``, every group's
initial leader in data centre 0, and the clients in data centre 0 (the
paper does not state client placement; co-locating clients with leaders
gives the cleanest view of the protocols' own latencies — noted in
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from ..config import ClusterConfig
from ..placement import PlacementPolicy
from ..sim.network import SiteTopology, WAN_ONE_WAY, lan_topology
from ..types import ProcessId

#: One-way LAN latency (the paper reports ~0.1 ms RTT).
LAN_ONE_WAY = 0.00005

#: Batching linger used on the WAN testbed: a few ms against the 30-65 ms
#: one-way delays — long enough to fill batches, invisible in the latency.
WAN_MAX_LINGER = 0.005


def lan_testbed(config: ClusterConfig, jitter: float = 0.0) -> SiteTopology:
    """Every process on its own machine; uniform 0.05 ms one-way delay."""
    return lan_topology(config.all_processes, one_way=LAN_ONE_WAY, jitter=jitter)


def wan_site_map(
    config: ClusterConfig,
    client_site: int = 0,
    spread_leaders: bool = False,
    spread_clients: bool = False,
) -> Dict[ProcessId, int]:
    """The WAN testbed's process → data-centre map (members and clients).

    Shared between the delay model (:func:`wan_testbed`) and the placement
    policy attached to the :class:`~repro.config.ClusterConfig`, so the
    simulated network and the lane deal agree about who lives where.

    ``spread_clients`` round-robins clients over the data centres,
    modelling a geo-distributed user base (used by the placement test
    battery to exercise remote-client ingress).  The default keeps every
    client in DC ``client_site`` — the recorded baseline, and the
    geometry under which the site-affine deal anchors every lane beside
    the ingress.
    """
    placement: Dict[ProcessId, int] = {}
    for gid in config.group_ids:
        offset = gid if spread_leaders else 0
        for i, pid in enumerate(config.members(gid)):
            placement[pid] = (i + offset) % 3
    sites = sorted(set(placement.values()))
    for i, pid in enumerate(config.clients):
        placement[pid] = sites[i % len(sites)] if spread_clients else client_site
    return placement


def wan_testbed(
    config: ClusterConfig,
    jitter: float = 0.0,
    client_site: int = 0,
    intra_site: float = LAN_ONE_WAY,
    spread_leaders: bool = False,
    site_map: Optional[Dict[ProcessId, int]] = None,
) -> SiteTopology:
    """Three data centres; replica ``i`` of each group lives in DC ``i``.

    With ``spread_leaders`` the placement is rotated per group so initial
    leaders land in different data centres; leader-to-leader exchanges
    (FastCast's PROPOSE/CONFIRM, Skeen's PROPOSE) then pay real WAN
    round trips instead of intra-DC ones.  ``site_map`` overrides the
    whole process placement (see :func:`wan_site_map`).
    """
    placement = (
        dict(site_map)
        if site_map is not None
        else wan_site_map(config, client_site=client_site, spread_leaders=spread_leaders)
    )
    return SiteTopology(placement, WAN_ONE_WAY, intra_site=intra_site, jitter=jitter)


def wan_site_config(
    num_groups: int,
    group_size: int,
    clients: int,
    shards_per_group: int = 1,
    conflict: str = "total",
) -> Tuple[ClusterConfig, SiteTopology]:
    """The WAN grid geometry of the serving and conflict benches: 3 DCs,
    a site :class:`~repro.placement.PlacementPolicy` on the config, and
    the clients spread over the data centres.  Returns the config and
    the matching delay model."""
    config = ClusterConfig.build(
        num_groups,
        group_size,
        clients,
        shards_per_group=shards_per_group,
        conflict=conflict,
    )
    sites = wan_site_map(config, spread_clients=True)
    config = replace(
        config,
        placement=PlacementPolicy(
            mode="site", sites=tuple(sorted(sites.items())), overlay="direct"
        ),
    )
    return config, wan_testbed(config, site_map=sites)
