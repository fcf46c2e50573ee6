"""Migration bookkeeping: the phase timeline Table 1 reports.

Each recovery action (in-place application restart or NSR migration to
the backup container) stamps a :class:`MigrationRecord` with the phase
boundaries the paper's Table 1 columns use:

    failure detection | initiate | migration/reboot | TCP+BGP recovery

The *link downtime* is tracked separately by the benchmark's remote-peer
observer — for TENSOR it must be zero even while these phases run.
"""


class MigrationRecord:
    """Phase timestamps for one recovery action."""

    def __init__(self, failure_kind, target_name):
        self.failure_kind = failure_kind
        self.target_name = target_name
        self.failed_at = None  # ground truth (set by the injector)
        self.detected_at = None  # detector confirmation
        self.initiated_at = None  # controller decision done, action started
        self.rebooted_at = None  # backup container up / app restarted
        self.recovered_at = None  # TCP repaired + BGP tables restored
        self.abandoned = False  # deadline expired / action rejected
        self.notes = []

    # -- phase durations (Table 1 columns) --------------------------------

    @property
    def detection_time(self):
        if self.failed_at is None or self.detected_at is None:
            return None
        return self.detected_at - self.failed_at

    @property
    def initiation_time(self):
        if self.detected_at is None or self.initiated_at is None:
            return None
        return self.initiated_at - self.detected_at

    @property
    def migration_time(self):
        if self.initiated_at is None or self.rebooted_at is None:
            return None
        return self.rebooted_at - self.initiated_at

    @property
    def recovery_time(self):
        if self.rebooted_at is None or self.recovered_at is None:
            return None
        return self.recovered_at - self.rebooted_at

    @property
    def total_time(self):
        if self.failed_at is None or self.recovered_at is None:
            return None
        return self.recovered_at - self.failed_at

    @property
    def complete(self):
        return self.recovered_at is not None

    def note(self, text):
        self.notes.append(text)

    def as_row(self):
        """Table-1-style row of phase durations (seconds)."""
        return {
            "failure": self.failure_kind,
            "detection": self.detection_time,
            "initiate": self.initiation_time,
            "migration": self.migration_time,
            "recovery": self.recovery_time,
            "total": self.total_time,
        }

    def __repr__(self):
        total = self.total_time
        label = f"{total:.2f}s" if total is not None else (
            "done" if self.complete else "incomplete"
        )
        return f"<MigrationRecord {self.failure_kind} {self.target_name} {label}>"
