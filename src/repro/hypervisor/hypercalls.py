"""Para-virtualized service layer (the XM_* hypercall API).

Partitions under partial virtualization request hypervisor services
through hypercalls.  The table below mirrors the XtratuM API surface the
use cases need; ``SvcBridge`` additionally maps R52-lite ``SVC``
instructions (see ``repro.soc.cpu``) onto the same services so native
code running on the modelled cores can reach the hypervisor.
"""

from __future__ import annotations

from typing import Dict

XM_GET_TIME = 0x01
XM_PARTITION_STATUS = 0x02
XM_WRITE_PORT = 0x03
XM_READ_PORT = 0x04
XM_HALT_PARTITION = 0x05
XM_SUSPEND_PARTITION = 0x06
XM_RESUME_PARTITION = 0x07
XM_RAISE_HM_EVENT = 0x08
XM_SWITCH_PLAN = 0x09
XM_GET_PLAN = 0x0A

HYPERCALL_NAMES = {
    XM_GET_TIME: "XM_get_time",
    XM_PARTITION_STATUS: "XM_partition_get_status",
    XM_WRITE_PORT: "XM_write_port",
    XM_READ_PORT: "XM_read_port",
    XM_HALT_PARTITION: "XM_halt_partition",
    XM_SUSPEND_PARTITION: "XM_suspend_partition",
    XM_RESUME_PARTITION: "XM_resume_partition",
    XM_RAISE_HM_EVENT: "XM_raise_hm_event",
    XM_SWITCH_PLAN: "XM_switch_sched_plan",
    XM_GET_PLAN: "XM_get_sched_plan",
}


class HypercallError(Exception):
    pass


class HypercallApi:
    """Service dispatcher bound to a hypervisor instance."""

    def __init__(self, hypervisor) -> None:
        self.hypervisor = hypervisor
        self.calls: Dict[int, int] = {}

    def invoke(self, number: int, caller_pid: int, *args):
        self.calls[number] = self.calls.get(number, 0) + 1
        hv = self.hypervisor
        if number == XM_GET_TIME:
            return hv.scheduler.time_us
        if number == XM_PARTITION_STATUS:
            pid = args[0] if args else caller_pid
            partition = hv.partitions.get(pid)
            if partition is None:
                raise HypercallError(f"unknown partition {pid}")
            return partition.state.value
        if number == XM_WRITE_PORT:
            name, payload = args
            return hv.ports.write(name, caller_pid, payload,
                                  hv.scheduler.time_us)
        if number == XM_READ_PORT:
            (name,) = args
            return hv.ports.read(name, caller_pid, hv.scheduler.time_us)
        if number == XM_HALT_PARTITION:
            pid = args[0] if args else caller_pid
            self._check_management(caller_pid, pid)
            hv.partitions[pid].halt("hypercall")
            return 0
        if number == XM_SUSPEND_PARTITION:
            pid = args[0] if args else caller_pid
            self._check_management(caller_pid, pid)
            hv.partitions[pid].suspend()
            return 0
        if number == XM_RESUME_PARTITION:
            pid = args[0] if args else caller_pid
            self._check_management(caller_pid, pid)
            hv.partitions[pid].resume()
            return 0
        if number == XM_RAISE_HM_EVENT:
            from .health import HmEvent
            (event_name,) = args
            hv.health.report(hv.scheduler.time_us, caller_pid,
                             HmEvent(event_name), "raised by partition")
            return 0
        if number == XM_SWITCH_PLAN:
            (plan_id,) = args
            self._check_management(caller_pid, caller_pid, allow_self=False)
            if plan_id not in hv.config.plans:
                raise HypercallError(f"unknown plan {plan_id}")
            hv.requested_plan = plan_id
            return 0
        if number == XM_GET_PLAN:
            return hv.active_plan_id
        raise HypercallError(f"unknown hypercall {number}")

    def _check_management(self, caller_pid: int, target_pid: int,
                          allow_self: bool = True) -> None:
        caller = self.hypervisor.config.partitions[caller_pid]
        if caller.system_partition:
            return
        if allow_self and caller_pid == target_pid:
            return
        raise HypercallError(
            f"partition {caller_pid} lacks system rights for management "
            f"hypercalls")


class SvcBridge:
    """Connects R52-lite SVC traps to the hypercall API.

    ABI: r0 = hypercall number, r1/r2 = arguments, result in r0.
    Install as the core's ``svc_handler``.
    """

    def __init__(self, api: HypercallApi, partition_of_core: Dict[int, int]
                 ) -> None:
        self.api = api
        self.partition_of_core = partition_of_core
        self.trap_count = 0

    def __call__(self, core, imm: int) -> None:
        self.trap_count += 1
        pid = self.partition_of_core.get(core.core_id, 0)
        number = core.regs[0]
        try:
            result = self.api.invoke(number, pid)
            core.regs[0] = int(result) & 0xFFFFFFFF \
                if isinstance(result, (int, float)) else 0
        except HypercallError:
            core.regs[0] = 0xFFFFFFFF
