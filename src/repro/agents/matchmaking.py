"""Request/service matchmaking — eq. (10) at the agent level.

"The expected execution completion time for a given task on a given
resource can be estimated using η_r = ω + min_{ρ ⊆ P} t_x(ρ, σ_r).
For a homogenous local grid resource, the PACE evaluation function is
called n times.  If η_r ≤ δ_r, the resource is considered to be able to
meet the required deadline."

The estimate is deliberately simple — the local scheduler "may change the
task order and advance or postpone a specific task execution" — but it is
what drives both the agents' dispatch decisions and the coarse-grained
load-balancing effect the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AgentError
from repro.net.payloads import ServiceInfo
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import HardwareCatalogue
from repro.tasks.task import TaskRequest

__all__ = ["MatchResult", "match_request"]


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matchmaking one request against one service.

    ``supported`` gates on the execution environment; when unsupported the
    remaining fields are meaningless (``eta`` is +inf).
    """

    service: ServiceInfo
    supported: bool
    eta: float
    best_count: int
    meets_deadline: bool

    @classmethod
    def unsupported(cls, service: ServiceInfo) -> "MatchResult":
        """The no-match result for an environment mismatch."""
        return cls(service, False, float("inf"), 0, False)

    def with_transfer_penalty(
        self, penalty: float, deadline: float
    ) -> "MatchResult":
        """This match with *penalty* staging seconds added to its eta.

        The data-gravity adjustment: inputs not already on the candidate
        resource must move there first, so its eq.-(10) estimate slips by
        the transfer time and the deadline verdict is re-derived.  A
        zero penalty (or an unsupported match) returns ``self`` unchanged.
        """
        if not self.supported or penalty <= 0.0:
            return self
        eta = self.eta + penalty
        return MatchResult(
            service=self.service,
            supported=True,
            eta=eta,
            best_count=self.best_count,
            meets_deadline=eta <= deadline,
        )


def match_request(
    request: TaskRequest,
    service: ServiceInfo,
    evaluator: EvaluationEngine,
    catalogue: HardwareCatalogue,
    now: float,
) -> MatchResult:
    """Estimate eq. (10) for *request* on the resource behind *service*.

    The advertised freetime may lie in the past (the advertisement is
    periodic and therefore stale); it is clamped to *now* because a
    resource cannot start a task before the present.

    Raises
    ------
    AgentError
        If the advertised hardware type is unknown to *catalogue*.
    """
    if not service.supports(request.environment):
        return MatchResult.unsupported(service)
    try:
        platform = catalogue.get(service.hardware_type)
    except Exception as exc:
        raise AgentError(
            f"service {service.agent_endpoint} advertises unknown hardware "
            f"{service.hardware_type!r}"
        ) from exc
    best_count, best_time = evaluator.best_count(
        request.application, platform, service.nproc
    )
    eta = max(service.freetime, now) + best_time
    return MatchResult(
        service=service,
        supported=True,
        eta=eta,
        best_count=best_count,
        meets_deadline=eta <= request.deadline,
    )
