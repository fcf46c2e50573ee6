"""IP SLA probes (§3.3.2).

"the agent server will send Internet protocol service level agreement
(IP SLA) probes to the containers and their host machines.  Further, the
host machines will also send IP SLA probes to each other to monitor the
inter-connectivity.  The agent server and the host machines will report
their measurement results to the controller through the gRPC channels."

A prober runs on one host and probes many targets; reachability changes
are reported through a callback which the owning entity forwards to the
controller.
"""

from repro.sim.calibration import IPSLA_PROBE_INTERVAL, IPSLA_PROBE_TIMEOUT
from repro.sim.process import Process
from repro.sim.rpc import RpcClient, RpcServer

IPSLA_PORT = 5005

#: Consecutive probe timeouts before a target is reported unreachable.
IPSLA_MISS_THRESHOLD = 2


class IpSlaResponder:
    """The echo endpoint every probed entity runs."""

    def __init__(self, engine, host, port=IPSLA_PORT):
        self.rpc = RpcServer(engine, host, port, self._echo, protocol="ipsla")

    @staticmethod
    def _echo(_method, _body, respond):
        respond({"echo": True})

    def close(self):
        self.rpc.close()


class IpSlaProber:
    """Probes a set of targets every ``IPSLA_PROBE_INTERVAL``; reports
    reachability transitions."""

    def __init__(self, engine, host, name, on_change=None):
        self.engine = engine
        self.host = host
        self.name = name
        self.on_change = on_change  # fn(prober, target_name, reachable)
        self.process = Process(engine, f"ipsla:{name}")
        self._targets = {}  # name -> dict(client, misses, reachable)
        self._started = False

    def add_target(self, target_name, target_addr):
        client = RpcClient(self.engine, self.host, target_addr, IPSLA_PORT,
                           protocol="ipsla")
        self._targets[target_name] = {
            "client": client,
            "misses": 0,
            "reachable": True,
            "addr": target_addr,
        }

    def remove_target(self, target_name):
        entry = self._targets.pop(target_name, None)
        if entry is not None:
            entry["client"].close()

    def retarget(self, target_name, new_addr):
        self.remove_target(target_name)
        self.add_target(target_name, new_addr)

    def start(self):
        if not self._started:
            self._started = True
            self.process.every(IPSLA_PROBE_INTERVAL, self._probe_all)

    def _probe_all(self):
        if not self.host.reachable():
            return  # our own network is down; we cannot observe anything
        for target_name, entry in list(self._targets.items()):
            entry["client"].call(
                "echo",
                {},
                on_reply=lambda _rep, n=target_name: self._mark(n, True),
                on_timeout=lambda n=target_name: self._miss(n),
                timeout=IPSLA_PROBE_TIMEOUT,
            )

    def _miss(self, target_name):
        entry = self._targets.get(target_name)
        if entry is None:
            return
        entry["misses"] += 1
        if entry["reachable"] and entry["misses"] >= IPSLA_MISS_THRESHOLD:
            self._mark(target_name, False)

    def _mark(self, target_name, reachable):
        entry = self._targets.get(target_name)
        if entry is None:
            return
        if reachable:
            entry["misses"] = 0
        changed = entry["reachable"] != reachable
        entry["reachable"] = reachable
        if changed and self.on_change is not None:
            self.on_change(self, target_name, reachable)

    def reachable(self, target_name):
        entry = self._targets.get(target_name)
        return entry["reachable"] if entry else None

    def stop(self):
        self.process.kill()
        for entry in self._targets.values():
            entry["client"].close()
        self._targets.clear()
