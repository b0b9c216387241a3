"""Multi-tenant overload control over the compressed-memory node.

:class:`PressureController` wraps a live
:class:`~repro.core.controller.CompressedMemoryController` (plus its
:class:`~repro.core.ballooning.BalloonDriver`) and imposes the
policies a shared node needs when compressibility collapses
(docs/PRESSURE.md):

* **admission control** — a deterministic token bucket gates
  allocating requests; when it runs dry, requests stall (bounded by
  ``max_stall_clock``) or are shed by priority class;
* **per-tenant budgets** — each tenant's resident OSPA set is tracked
  in an :class:`~repro.osmodel.paging.LRUPagingSimulator` against its
  :mod:`~repro.osmodel.cgroups` budget; over-budget tenants have their
  coldest pages paged out before the new page is admitted;
* **backpressure state** — a hysteretic ``in_pressure`` flag keyed on
  machine-memory utilization and degraded mode, traced via
  ``pressure_enter`` / ``pressure_exit``;
* **watchdog** — degraded-mode dwell (``tracer.clock -
  controller.degraded_since``) is bounded; past the bound the
  watchdog escalates to forced per-tenant page-out, extending the
  paper's ladder (balloon → emergency repack → degraded) with a
  fourth, tenant-aware rung.

Every transition emits a registered trace event, so campaign
reconciliation (:mod:`repro.pressure.campaign`) can prove nothing was
shed, denied or recovered silently.  All state advances on the
tracer's access clock plus an internal request counter — no wallclock,
no RNG — keeping runs content-addressable by the runner cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..memory.allocator import OutOfMemoryError
from ..obs.metrics import Histogram
from ..osmodel.paging import LRUPagingSimulator

#: Priority classes, lowest number = most important.
PRIORITY_CRITICAL = 0
PRIORITY_STANDARD = 1
PRIORITY_BEST_EFFORT = 2

#: Stall-cycle histogram bucket edges (admission wait, in clock units).
STALL_BOUNDS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                256.0, 512.0)


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index over non-negative allocations.

    1.0 when every tenant gets an equal share, 1/n when one tenant
    gets everything.  An empty or all-zero vector is vacuously fair.
    """
    values = [max(0.0, float(v)) for v in values]
    total = sum(values)
    if not values or total == 0.0:
        return 1.0
    return total * total / (len(values) * sum(v * v for v in values))


@dataclass(frozen=True)
class PressureConfig:
    """Knobs of the overload-control layer (DESIGN.md §6.4)."""

    #: Token-bucket refill rate: allocating requests admitted per
    #: admission-clock unit (one unit per driver ``step()``).
    admission_rate: float = 4.0
    #: Token-bucket capacity: burst of requests admitted without stall.
    admission_burst: int = 64
    #: Machine-memory utilization at which backpressure engages.
    enter_utilization: float = 0.92
    #: Utilization below which backpressure releases (hysteresis).
    exit_utilization: float = 0.80
    #: Longest admission stall, in clock units, before shedding instead.
    max_stall_clock: int = 64
    #: Degraded-mode dwell bound before the watchdog escalates.
    max_degraded_clock: int = 256
    #: Pages forcibly paged out of the victim tenant per escalation.
    watchdog_page_out: int = 4

    def __post_init__(self) -> None:
        if self.admission_rate <= 0:
            raise ValueError("admission_rate must be positive")
        if self.admission_burst < 1:
            raise ValueError("admission_burst must be at least 1")
        if not 0.0 < self.exit_utilization < self.enter_utilization <= 1.0:
            raise ValueError(
                "need 0 < exit_utilization < enter_utilization <= 1")
        if self.max_stall_clock < 0:
            raise ValueError("max_stall_clock must be non-negative")
        if self.max_degraded_clock < 1:
            raise ValueError("max_degraded_clock must be at least 1")
        if self.watchdog_page_out < 1:
            raise ValueError("watchdog_page_out must be at least 1")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: identity, entitlement, priority class.

    ``budget`` is any object with ``resident_limit(progress) -> int``
    (:class:`~repro.osmodel.cgroups.StaticBudget` or
    :class:`~repro.osmodel.cgroups.DynamicBudget`).
    """

    name: str
    budget: object
    priority: int = PRIORITY_STANDARD

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.priority not in (PRIORITY_CRITICAL, PRIORITY_STANDARD,
                                 PRIORITY_BEST_EFFORT):
            raise ValueError(f"unknown priority class {self.priority}")
        if not hasattr(self.budget, "resident_limit"):
            raise TypeError("budget must provide resident_limit(progress)")


class TokenBucket:
    """Deterministic clock-driven token bucket (admission gate)."""

    def __init__(self, rate: float, burst: int) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.clock = 0

    def _refill(self, now: int) -> None:
        if now > self.clock:
            self.tokens = min(self.burst,
                              self.tokens + (now - self.clock) * self.rate)
            self.clock = now

    def take(self, now: int) -> bool:
        """Consume one token at clock ``now``; False if the bucket is dry."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def wait_clocks(self, now: int) -> int:
        """Clock units until one token will be available at ``now``."""
        self._refill(now)
        deficit = 1.0 - self.tokens
        if deficit <= 0.0:
            return 0
        return int(math.ceil(deficit / self.rate))


@dataclass
class PressureStats:
    """Counters reconciled one-for-one against trace events."""

    requests: int = 0
    admitted: int = 0
    throttled: int = 0        # == admission_throttled events
    shed: int = 0             # == request_shed events
    denied: int = 0           # == alloc_denied events under this layer
    oom_absorbed: int = 0     # == pressure_oom_absorbed events
    over_budget: int = 0      # == tenant_over_budget events
    page_outs: int = 0        # == tenant_page_out events
    escalations: int = 0      # == watchdog_escalation events
    pressure_enters: int = 0  # == pressure_enter events
    pressure_exits: int = 0   # == pressure_exit events


@dataclass
class _TenantState:
    """Book-keeping for one tenant (resident set, stalls, outcomes)."""

    spec: TenantSpec
    pager: LRUPagingSimulator
    stall: Histogram
    requests: int = 0
    admitted: int = 0
    shed: int = 0
    denied: int = 0
    paged_out: int = 0


class PressureController:
    """Admission control + budgets + watchdog over a compressed node.

    The wrapped controller keeps full responsibility for the paper's
    ladder (balloon relief, emergency repack, degraded mode); this
    layer decides *which requests reach it* and *which tenant pays*
    when the node stays degraded too long.  See docs/PRESSURE.md.
    """

    def __init__(self, controller, tenants: Sequence[TenantSpec],
                 balloon=None, config: Optional[PressureConfig] = None
                 ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.controller = controller
        self.balloon = balloon
        self.config = config or PressureConfig()
        self.tracer = controller.tracer
        self.stats = PressureStats()
        self.bucket = TokenBucket(self.config.admission_rate,
                                  self.config.admission_burst)
        self.in_pressure = False
        self.tenants: Dict[str, _TenantState] = {
            spec.name: _TenantState(
                spec=spec,
                pager=LRUPagingSimulator(spec.budget),
                stall=Histogram(f"pressure.stall.{spec.name}", STALL_BOUNDS),
            )
            for spec in tenants
        }
        self.stall = Histogram("pressure.stall", STALL_BOUNDS)
        #: OSPA page -> owning tenant name (for escalation accounting).
        self._owner: Dict[int, str] = {}
        #: Admission clock: one unit per :meth:`step` call (the
        #: driver's simulation step) plus stall waits.  Deliberately
        #: *not* the tracer's access clock: admission_rate is "requests
        #: per driver step", so a burst of requests within one step
        #: drains the bucket and gets throttled, which is the point.
        self._now = 0

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------

    def write(self, tenant: str, page: int, line: int, data: bytes,
              progress: float = 0.0) -> str:
        """One tenant write; returns "admitted" | "shed" | "denied"."""
        return self._request(tenant, progress, page,
                             lambda: self.controller.write_line(
                                 page, line, data))

    def install(self, tenant: str, page: int, lines,
                progress: float = 0.0) -> str:
        """Install a fresh OSPA page for a tenant (first touch)."""
        return self._request(tenant, progress, page,
                             lambda: self.controller.install_page(
                                 page, lines))

    def read(self, tenant: str, page: int, line: int,
             progress: float = 0.0):
        """Tenant read: never gated or shed (reads allocate nothing),
        but refreshes the tenant's LRU recency for the page."""
        state = self._tenant(tenant)
        if page in self._owner:
            state.pager.touch(page, progress)
        return self.controller.read_line(page, line)

    def free(self, tenant: str, page: int) -> None:
        """Tenant releases a page; may let the node exit degraded mode."""
        state = self._tenant(tenant)
        self.controller.free_page(page)
        state.pager.drop(page)
        self._owner.pop(page, None)
        self._update_pressure_state()

    def step(self, progress: float = 0.0) -> None:
        """End-of-step tick: advance the admission clock (refilling the
        token bucket), refresh backpressure state, run the watchdog."""
        self._now += 1
        self._update_pressure_state()
        self._watchdog(progress)

    def _request(self, tenant: str, progress: float, page: int, op) -> str:
        state = self._tenant(tenant)
        self.stats.requests += 1
        state.requests += 1
        self._update_pressure_state()
        stall = self._admit(state)
        if stall is None:
            return "shed"
        self.stall.observe(stall)
        state.stall.observe(stall)
        self._watchdog(progress)
        self._enforce_budget(state, page, progress)
        denials_before = self.controller.stats.alloc_denials
        outcome = "admitted"
        try:
            op()
        except OutOfMemoryError:
            # The wrapped controller denies most exhaustion internally;
            # whatever still escapes (repack/conversion corner paths)
            # stops here — the campaign guarantee is that no OOM ever
            # crosses the pressure layer.
            self.stats.oom_absorbed += 1
            self.tracer.emit("pressure_oom_absorbed", page=page,
                             tenant=tenant)
            outcome = "denied"
        if self.controller.stats.alloc_denials > denials_before:
            outcome = "denied"
        if outcome == "denied":
            self.stats.denied += 1
            state.denied += 1
        else:
            self.stats.admitted += 1
            state.admitted += 1
        self._owner[page] = tenant
        state.pager.touch(page, progress)
        self._update_pressure_state()
        return outcome

    # ------------------------------------------------------------------
    # admission gate
    # ------------------------------------------------------------------

    def _admit(self, state: _TenantState) -> Optional[int]:
        """Pass one request through the token bucket.

        Returns the stall (clock units, 0 if immediate) or None when
        the request was shed.  Shedding policy by priority class:
        best-effort sheds whenever the bucket is dry; standard sheds
        under backpressure or past the stall bound; critical always
        stalls, however long the wait.
        """
        if self.bucket.take(self._now):
            return 0
        wait = max(1, self.bucket.wait_clocks(self._now))
        priority = state.spec.priority
        shed = (priority >= PRIORITY_BEST_EFFORT
                or (priority >= PRIORITY_STANDARD
                    and (self.in_pressure
                         or wait > self.config.max_stall_clock)))
        if shed:
            self.stats.shed += 1
            state.shed += 1
            self.tracer.emit("request_shed", extra=wait,
                             tenant=state.spec.name, priority=priority)
            return None
        self._now += wait
        if not self.bucket.take(self._now):  # pragma: no cover - invariant
            raise AssertionError("token bucket dry after computed wait")
        self.stats.throttled += 1
        self.tracer.emit("admission_throttled", extra=wait,
                         tenant=state.spec.name)
        return wait

    # ------------------------------------------------------------------
    # budgets and escalation
    # ------------------------------------------------------------------

    def _enforce_budget(self, state: _TenantState, page: int,
                        progress: float) -> None:
        """Page out a tenant's coldest pages before it exceeds budget."""
        limit = max(1, state.spec.budget.resident_limit(progress))
        incoming = 0 if page in self._owner else 1
        overflow = state.pager.resident_pages + incoming - limit
        if overflow <= 0:
            return
        self.stats.over_budget += 1
        self.tracer.emit("tenant_over_budget", extra=overflow,
                         tenant=state.spec.name, limit=limit)
        self._page_out(state, overflow)

    def _page_out(self, state: _TenantState, n: int) -> int:
        """Evict the tenant's ``n`` coldest pages node-wide (traced)."""
        victims = state.pager.evict_coldest(n)
        for victim in victims:
            self.controller.free_page(victim)
            self._owner.pop(victim, None)
            state.paged_out += 1
            self.stats.page_outs += 1
            self.tracer.emit("tenant_page_out", page=victim,
                             tenant=state.spec.name)
        return len(victims)

    def _watchdog(self, progress: float) -> None:
        """Bound degraded-mode dwell; escalate to forced page-out.

        The paper's ladder ends at "deny further growth"; a shared
        node cannot sit there forever, so past ``max_degraded_clock``
        access cycles the watchdog picks the least-important tenant
        with the largest resident set and pages part of it out, then
        re-arms the dwell timer.
        """
        controller = self.controller
        if not controller.degraded_mode or controller.degraded_since is None:
            return
        dwell = self.tracer.clock - controller.degraded_since
        if dwell <= self.config.max_degraded_clock:
            return
        self.stats.escalations += 1
        self.tracer.emit("watchdog_escalation", extra=dwell)
        victim = self._escalation_victim()
        if victim is not None:
            self._page_out(victim, self.config.watchdog_page_out)
        controller.scrub()
        if controller.degraded_mode:
            # Still degraded: re-arm so the next escalation waits a
            # full dwell period instead of firing on every request.
            controller.degraded_since = self.tracer.clock
        self._update_pressure_state()

    def _escalation_victim(self) -> Optional[_TenantState]:
        """Least-important tenant with the largest resident set."""
        candidates = [state for state in self.tenants.values()
                      if state.pager.resident_pages > 0]
        if not candidates:
            return None
        return max(candidates, key=lambda s: (s.spec.priority,
                                              s.pager.resident_pages,
                                              s.spec.name))

    # ------------------------------------------------------------------
    # backpressure state machine
    # ------------------------------------------------------------------

    def utilization(self) -> float:
        """Fraction of machine-memory data chunks currently allocated."""
        allocator = self.controller.allocator
        total = allocator.total_chunks
        if not total:
            return 0.0
        return 1.0 - allocator.free_chunks / total

    def _update_pressure_state(self) -> None:
        """Hysteretic enter/exit of backpressure (always traced)."""
        utilization = self.utilization()
        degraded = self.controller.degraded_mode
        if not self.in_pressure and (degraded or utilization
                                     >= self.config.enter_utilization):
            self.in_pressure = True
            self.stats.pressure_enters += 1
            self.tracer.emit("pressure_enter",
                             extra=int(utilization * 1000))
        elif self.in_pressure and not degraded and (
                utilization <= self.config.exit_utilization):
            self.in_pressure = False
            self.stats.pressure_exits += 1
            self.tracer.emit("pressure_exit",
                             extra=int(utilization * 1000))

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def fairness(self, progress: float = 1.0) -> float:
        """Jain's index over tenants' satisfied capacity fractions.

        Each tenant's allocation is ``resident / entitlement`` capped
        at 1.0 — how much of its budget the node actually honours; the
        index says whether squeeze was shared or dumped on one tenant.
        """
        shares: List[float] = []
        for state in self.tenants.values():
            limit = max(1, state.spec.budget.resident_limit(progress))
            shares.append(min(1.0, state.pager.resident_pages / limit))
        return jain_index(shares)

    def metrics(self, progress: float = 1.0) -> Dict[str, float]:
        """Flat str -> number digest (journal ``stats`` compatible)."""
        stats = self.stats
        out: Dict[str, float] = {
            "requests": stats.requests,
            "admitted": stats.admitted,
            "throttled": stats.throttled,
            "shed": stats.shed,
            "denied": stats.denied,
            "oom_absorbed": stats.oom_absorbed,
            "over_budget": stats.over_budget,
            "page_outs": stats.page_outs,
            "escalations": stats.escalations,
            "pressure_enters": stats.pressure_enters,
            "pressure_exits": stats.pressure_exits,
            "utilization": round(self.utilization(), 6),
            "jain_fairness": round(self.fairness(progress), 6),
            "stall_p50": round(self.stall.percentile(50.0), 3),
            "stall_p95": round(self.stall.percentile(95.0), 3),
            "stall_p99": round(self.stall.percentile(99.0), 3),
            "stall_mean": round(self.stall.mean, 6),
        }
        for name, state in sorted(self.tenants.items()):
            out[f"tenant_{name}_resident"] = state.pager.resident_pages
            out[f"tenant_{name}_shed"] = state.shed
            out[f"tenant_{name}_paged_out"] = state.paged_out
            out[f"tenant_{name}_stall_p95"] = round(
                state.stall.percentile(95.0), 3)
        return out

    # ------------------------------------------------------------------

    def _tenant(self, name: str) -> _TenantState:
        try:
            return self.tenants[name]
        except KeyError:
            raise KeyError(f"unknown tenant {name!r}; "
                           f"known: {sorted(self.tenants)}") from None
