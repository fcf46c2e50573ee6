"""The NSR-enabled hardware router (Comware-class), as a cost/SLA model.

The paper compares TENSOR against commercial NSR-enabled routers on SLA
(both "(Online) Seconds") and on development/deployment/maintenance
costs (Table 2, §4.4).  We cannot run vendor firmware; the router is a
documented model whose recovery behaviour mirrors TENSOR's SLA class and
whose costs carry the paper's reported figures.
"""

from repro.sim.calibration import SOLUTION_COSTS


class NsrEnabledRouter:
    """Cost and SLA model of a commercial NSR-enabled router."""

    def __init__(self):
        self.costs = SOLUTION_COSTS["nsr_router"]

    @property
    def recovery_class(self):
        return self.costs["recovery"]  # "(Online) Seconds"

    def development_cost(self):
        return {
            "time_months": self.costs["dev_time_months"],
            "labor_man_months": self.costs["dev_labor_man_months"],
            "lines_of_code": self.costs["loc"],
        }

    def deployment_cost_usd(self):
        return self.costs["deploy_cost_usd"]

    def maintenance_man_hours_per_month(self):
        return self.costs["maintenance_man_hours_per_month"]
