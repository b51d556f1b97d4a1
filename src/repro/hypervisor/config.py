"""XtratuM-style system configuration.

XtratuM systems are statically configured: partitions, their memory
areas, the cyclic scheduling plans and the communication ports are all
declared up front (the XM_CF configuration of the real hypervisor).  The
checker enforces the same global rules the real configuration compiler
does: no overlapping windows per core, no overlapping memory areas, ports
wired to declared partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional


class ConfigError(Exception):
    pass


class PortKind(Enum):
    SAMPLING = "sampling"
    QUEUING = "queuing"


@dataclass(frozen=True)
class MemoryArea:
    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def overlaps(self, other: "MemoryArea") -> bool:
        return self.base < other.end and other.base < self.end


@dataclass
class PartitionConfig:
    pid: int
    name: str
    memory: List[MemoryArea] = field(default_factory=list)
    criticality: str = "DAL-B"
    system_partition: bool = False   # may issue management hypercalls


@dataclass
class Window:
    partition: int
    core: int
    start_us: float
    duration_us: float

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


@dataclass
class Plan:
    plan_id: int
    major_frame_us: float
    windows: List[Window] = field(default_factory=list)

    def add_window(self, partition: int, core: int, start_us: float,
                   duration_us: float) -> Window:
        window = Window(partition, core, start_us, duration_us)
        self.windows.append(window)
        return window

    def windows_for_core(self, core: int) -> List[Window]:
        return sorted((w for w in self.windows if w.core == core),
                      key=lambda w: w.start_us)


@dataclass
class PortConfig:
    name: str
    kind: PortKind
    source: int              # partition id
    destinations: List[int]
    depth: int = 8           # queuing ports only
    message_words: int = 16


@dataclass
class SystemConfig:
    partitions: Dict[int, PartitionConfig] = field(default_factory=dict)
    plans: Dict[int, Plan] = field(default_factory=dict)
    ports: Dict[str, PortConfig] = field(default_factory=dict)
    cores: int = 4
    context_switch_us: float = 2.0   # hypervisor overhead per window

    # -- construction -------------------------------------------------------

    def add_partition(self, pid: int, name: str,
                      memory: Optional[List[MemoryArea]] = None,
                      criticality: str = "DAL-B",
                      system_partition: bool = False) -> PartitionConfig:
        if pid in self.partitions:
            raise ConfigError(f"duplicate partition id {pid}")
        config = PartitionConfig(pid=pid, name=name,
                                 memory=list(memory or []),
                                 criticality=criticality,
                                 system_partition=system_partition)
        self.partitions[pid] = config
        return config

    def add_plan(self, plan_id: int, major_frame_us: float) -> Plan:
        if plan_id in self.plans:
            raise ConfigError(f"duplicate plan id {plan_id}")
        plan = Plan(plan_id=plan_id, major_frame_us=major_frame_us)
        self.plans[plan_id] = plan
        return plan

    def add_port(self, name: str, kind: PortKind, source: int,
                 destinations: List[int], depth: int = 8) -> PortConfig:
        if name in self.ports:
            raise ConfigError(f"duplicate port {name!r}")
        port = PortConfig(name=name, kind=kind, source=source,
                          destinations=list(destinations), depth=depth)
        self.ports[name] = port
        return port

    # -- validation ---------------------------------------------------------

    def validate(self) -> List[str]:
        """Global consistency checks the configuration compiler enforces.

        Delegates to the ``repro.analysis`` XMCF pass pack and returns
        the ERROR-level findings as plain messages — the historical
        contract of this method.  ``repro lint`` additionally reports
        the advisory findings (unscheduled partitions, dangling ports).
        """
        from ..analysis.passes.xmcf import error_messages
        return error_messages(self)
