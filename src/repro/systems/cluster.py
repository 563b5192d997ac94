"""Cluster and node resource models shared by all simulators.

Nodes carry CPU, memory, disk, and network capabilities.  Heterogeneous
clusters (mixed node generations) are first-class because the tutorial's
open-challenges section singles out heterogeneity as the setting where
cost models break down (Table 1: "Not effective on heterogeneous
clusters").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Sequence

__all__ = ["NodeSpec", "Cluster"]


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one machine.

    Attributes:
        cores: physical CPU cores.
        cpu_speed: relative per-core speed (1.0 = baseline generation).
        memory_mb: RAM available to the data system.
        disk_read_mbps / disk_write_mbps: sequential throughput.
        disk_random_iops: random 4K read operations per second.
        network_mbps: full-duplex NIC bandwidth.
    """

    cores: int = 8
    cpu_speed: float = 1.0
    memory_mb: int = 16384
    disk_read_mbps: float = 200.0
    disk_write_mbps: float = 150.0
    disk_random_iops: float = 300.0
    network_mbps: float = 1000.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.cpu_speed <= 0:
            raise ValueError("cpu_speed must be positive")
        if self.memory_mb < 128:
            raise ValueError("memory_mb must be >= 128")
        for field_name in ("disk_read_mbps", "disk_write_mbps", "disk_random_iops", "network_mbps"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    def scaled(self, cpu: float = 1.0, mem: float = 1.0, disk: float = 1.0) -> "NodeSpec":
        """A derived node generation with scaled capabilities."""
        return replace(
            self,
            cpu_speed=self.cpu_speed * cpu,
            memory_mb=max(128, int(self.memory_mb * mem)),
            disk_read_mbps=self.disk_read_mbps * disk,
            disk_write_mbps=self.disk_write_mbps * disk,
            disk_random_iops=self.disk_random_iops * disk,
        )


class Cluster:
    """A set of nodes a distributed system runs on."""

    def __init__(self, nodes: Sequence[NodeSpec], name: str = "cluster"):
        if not nodes:
            raise ValueError("cluster needs at least one node")
        self.nodes = list(nodes)
        self.name = name

    # -- factories -----------------------------------------------------------
    @classmethod
    def uniform(cls, n: int, spec: NodeSpec = NodeSpec(), name: str = "uniform") -> "Cluster":
        if n < 1:
            raise ValueError("need at least one node")
        return cls([spec] * n, name=name)

    @classmethod
    def heterogeneous(
        cls,
        generations: Iterable[tuple],
        name: str = "heterogeneous",
    ) -> "Cluster":
        """Build from (count, NodeSpec) pairs, e.g., 4 old + 4 new nodes."""
        nodes: List[NodeSpec] = []
        for count, spec in generations:
            if count < 0:
                raise ValueError("generation count must be >= 0")
            nodes.extend([spec] * count)
        return cls(nodes, name=name)

    @classmethod
    def single_node(cls, spec: NodeSpec = NodeSpec(), name: str = "single") -> "Cluster":
        return cls([spec], name=name)

    # -- aggregates -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def total_cores(self) -> int:
        return sum(n.cores for n in self.nodes)

    @property
    def total_memory_mb(self) -> int:
        return sum(n.memory_mb for n in self.nodes)

    @property
    def min_node(self) -> NodeSpec:
        """The weakest node by effective compute — stragglers start here."""
        return min(self.nodes, key=lambda n: n.cores * n.cpu_speed)

    @property
    def is_heterogeneous(self) -> bool:
        return len(set(self.nodes)) > 1

    def mean_cpu_speed(self) -> float:
        return sum(n.cpu_speed for n in self.nodes) / len(self.nodes)

    def straggler_factor(self) -> float:
        """Slowest-to-mean compute ratio (>= 1); 1.0 when homogeneous.

        Synchronous stages complete at the pace of the slowest node, so
        simulators multiply barrier waits by this factor.
        """
        speeds = [n.cores * n.cpu_speed for n in self.nodes]
        mean = sum(speeds) / len(speeds)
        return mean / min(speeds) if min(speeds) > 0 else float("inf")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Cluster({self.name!r}, {len(self.nodes)} nodes)"
