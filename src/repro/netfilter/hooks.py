"""Hook points, rules and verdicts.

A :class:`HookChain` is evaluated for every packet crossing its hook point.
Rules are (matcher, target) pairs evaluated in order, exactly like an
iptables chain: the first matching rule decides the packet's fate.  The
interesting target for TENSOR is ``NFQUEUE``, which re-routes the packet to
a user-space queue and suspends its transmission until a verdict arrives.
"""

import enum


class HookPoint(enum.Enum):
    """The five classic Netfilter hook points (we exercise OUTPUT)."""

    PREROUTING = "PREROUTING"
    INPUT = "INPUT"
    FORWARD = "FORWARD"
    OUTPUT = "OUTPUT"
    POSTROUTING = "POSTROUTING"


class Verdict(enum.Enum):
    """Rule verdicts.  QUEUE suspends the packet into an NFQUEUE."""

    ACCEPT = "ACCEPT"
    DROP = "DROP"
    QUEUE = "QUEUE"


class Rule:
    """A single chain rule.

    ``matcher(packet) -> bool`` selects packets; ``verdict`` decides them;
    ``queue_num`` names the NFQUEUE for QUEUE verdicts.
    """

    def __init__(self, matcher, verdict, queue_num=None, comment=""):
        if verdict is Verdict.QUEUE and queue_num is None:
            raise ValueError("QUEUE verdict requires queue_num")
        self.matcher = matcher
        self.verdict = verdict
        self.queue_num = queue_num
        self.comment = comment
        self.hits = 0

    def matches(self, packet):
        return self.matcher(packet)

    def __repr__(self):
        return f"<Rule {self.verdict.value} q={self.queue_num} {self.comment!r}>"


class HookChain:
    """An ordered rule chain for one hook point.

    A packet no rule matches is accepted, like an unconfigured iptables
    chain.
    """

    def __init__(self, hook_point):
        self.hook_point = hook_point
        self.rules = []
        self.evaluations = 0

    def append(self, rule):
        """Add a rule at the end of the chain (iptables -A)."""
        self.rules.append(rule)
        return rule

    def evaluate(self, packet):
        """Return (verdict, queue_num) for ``packet``."""
        self.evaluations += 1
        for rule in self.rules:
            if rule.matches(packet):
                rule.hits += 1
                return rule.verdict, rule.queue_num
        return Verdict.ACCEPT, None

    def __repr__(self):
        return f"<HookChain {self.hook_point.value} rules={len(self.rules)}>"
