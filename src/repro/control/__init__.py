"""The controller plane (§3.2.2, §3.3).

"The controller directly manages the containers on all the servers ...
implemented ... based on Tencent Kubernetes Engine ... logically
centralized but physically distributed.  The controller connects to the
containers using gRPC" and is responsible for orchestration *and*
application-layer management (mapping BGP connections to containers,
monitoring BGP process health).

This package provides the gRPC-style heartbeat channels, IP SLA probes,
the §3.3.3 failure-localization logic (multiple signals, 3-second
confirmation timers), the fencing registry that prevents split-brain,
and the migration orchestration driven by the controller.
"""

from repro.control.channels import GrpcChannel, HealthServer
from repro.control.ipsla import IpSlaProber
from repro.control.detector import FailureDetector, FailureReport
from repro.control.fencing import FencingRegistry
from repro.control.migration import MigrationRecord
from repro.control.panel import ControllerPanel

__all__ = [
    "GrpcChannel",
    "HealthServer",
    "IpSlaProber",
    "FailureDetector",
    "FailureReport",
    "FencingRegistry",
    "MigrationRecord",
    "ControllerPanel",
]
