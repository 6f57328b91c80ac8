"""Unified filter-and-refine query planner.

Every expensive query path in the repo has the same shape: decide most
candidates from cheap bounds, refine the undecided remainder with an
exact kernel, and — for Monte Carlo techniques — stop sampling as soon
as the hit fraction is decided.  Before this module each technique
re-implemented that cascade by hand (MUNICH's bounding filter, the
MUNICH-DTW envelope bounds, the DTW pruning cascade's callers); the
planner extracts it into one composable pipeline:

* :class:`BoundStage` evaluates lower/upper bound stacks (from the
  engine-cached materializations) for every pair at once and decides the
  cells whose bounds clear the threshold;
* :class:`ConcentrationStage` (decision workloads) asks the technique
  for a cheap ``[lower, upper]`` bracket on each undecided cell's exact
  probability and decides the cells no target τ falls inside;
* :class:`RefineStage` runs the technique's exact kernel on the
  surviving candidate mask;
* :class:`AdaptiveMCStage` replaces a fixed-sample-size Monte Carlo
  refinement with escalating rounds and a *sound* sequential stopping
  rule against ``ε``/``τ``.

Both bracketing stages decide through one rule, :func:`bracket_verdict`.

A :class:`QueryPlan` is an ordered tuple of stages;
:meth:`QueryPlan.execute` runs them over one ``(M, N)`` workload and
returns the score matrix together with :class:`PruningStats` — how many
candidates each stage decided, how many exact refinements ran, how many
Monte Carlo samples were evaluated, and per-stage wall time.  Techniques
build their plans in :meth:`~repro.queries.techniques.Technique.build_plan`;
the default plan is a single :class:`RefineStage`, which is exactly the
pre-planner behaviour — custom :class:`Technique` subclasses keep
working unchanged.

The adaptive stopping rule
--------------------------

A fixed-``s`` Monte Carlo refinement draws ``s`` materialization pairs
and reports the hit fraction ``H/s``; the decision query compares it to
``τ``.  After evaluating only the first ``m`` draws with ``h`` hits, the
final count is bracketed by ``h <= H <= h + (s - m)``, so

* ``h / s >= τ``  ⇒  the pair is a **hit** no matter how the remaining
  draws land;
* ``(h + s - m) / s < τ``  ⇒  a **miss**, likewise unconditionally.

That is :func:`bracket_verdict` with ``lower = h/s`` and
``upper = (h + s - m)/s``: both checks use the same float divisions the
fixed path uses, and ``H/s`` is monotone in ``H``, so an early verdict
can *never* disagree with the fixed-``s`` verdict on the same seeded
draws — the rule prunes work, not correctness.
"""

from __future__ import annotations

import abc
import math
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import InvalidParameterError
from ..core.kernels import validate_backend_name

#: Kinds of score matrices a plan can produce.
PLAN_KINDS = ("distance", "probability", "calibration")

#: Precision tiers for bound/filter stages: ``mixed`` (default) streams
#: the float32 materialization tier through bound stages — admissibly
#: widened, so verdicts never flip — while refine kernels stay float64;
#: ``float64`` keeps the legacy everything-double path.
PRECISION_MODES = ("mixed", "float64")

#: Plan-policy modes: ``auto`` pilots and tunes the cascade, ``fixed``
#: runs the technique's authored cascade verbatim, ``never_index``
#: tunes but never admits an index stage.
POLICY_MODES = ("auto", "fixed", "never_index")

#: The cost model's assumed streaming bandwidth (bytes/second).  Pilot
#: wall-clock on a few hundred cells is noisy; per-cell costs are
#: floored at ``bytes_streamed / STREAM_BYTES_PER_SECOND`` so a stage
#: that must stream more data can never be *modeled* as cheaper than
#: one that streams less (the PIMDAL memory-bound argument).
STREAM_BYTES_PER_SECOND = 8e9

#: First adaptive round evaluates this fraction of the draw budget;
#: every later round doubles the cumulative target.  Geometric
#: escalation bounds the kernel-call overhead at ``log2(1/fraction)+1``
#: rounds while guaranteeing at most 2× the draws an ideal stopping
#: point would have evaluated.
ADAPTIVE_MC_FIRST_FRACTION = 1.0 / 16.0


def adaptive_mc_schedule(
    n_samples: int, first_fraction: float = ADAPTIVE_MC_FIRST_FRACTION
) -> List[int]:
    """Cumulative evaluation targets for the escalating sample rounds.

    Returns a strictly increasing list ending at ``n_samples``: the
    first target is ``ceil(n_samples · first_fraction)`` and each
    subsequent round doubles it, so a verdict reachable after ``t``
    draws costs at most ``2t`` — with only ``O(log)`` stacked kernel
    calls of overhead.
    """
    if n_samples < 1:
        raise InvalidParameterError(
            f"n_samples must be >= 1, got {n_samples}"
        )
    if not 0.0 < first_fraction <= 1.0:
        raise InvalidParameterError(
            f"first_fraction must be in (0, 1], got {first_fraction}"
        )
    targets: List[int] = []
    target = max(1, math.ceil(n_samples * first_fraction))
    while target < n_samples:
        targets.append(target)
        target = min(n_samples, target * 2)
    targets.append(n_samples)
    return targets


def bracket_verdict(
    lower,
    upper,
    tau: Union[float, Tuple[float, ...]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Sound verdicts for cells whose exact value is only bracketed.

    Each cell's final value ``P`` is known to lie in
    ``[lower, upper]``.  A threshold τ (a scalar, or every point of a
    τ grid) is decided iff it lies *outside* ``(lower, upper]``:
    ``τ <= lower`` is an unconditional hit (``P >= τ``), ``τ > upper``
    an unconditional miss.  Returns ``(decided, value)`` arrays:
    ``decided`` marks the cells with no target τ inside the open
    bracket, and ``value`` is the bracket end to record for them —
    ``lower`` when some τ is a hit, ``upper`` when every τ is a miss.
    Either end sits on the same side of every target τ as ``P`` itself,
    so thresholding the recorded value at any τ reproduces the exact
    verdict: the rule prunes work, never flips a decision.  A collapsed
    bracket (``lower == upper``) is always decided, at its exact value.

    Every bracketing stage uses it: adaptive Monte Carlo (where after
    ``m`` of ``s`` draws with ``h`` hits, ``lower = h/s`` and
    ``upper = (h + s - m)/s``) and the MUNICH concentration stage.
    """
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    grid = np.sort(np.atleast_1d(np.asarray(tau, dtype=np.float64)))
    # Grid points <= each end: equal counts <=> none in (lower, upper].
    hits_at_lower = np.searchsorted(grid, lower, side="right")
    decided = hits_at_lower == np.searchsorted(grid, upper, side="right")
    value = np.where(hits_at_lower > 0, lower, upper)
    return decided, value


def normalize_tau(tau) -> Union[None, float, Tuple[float, ...]]:
    """Canonical decision target: ``None``, a float, or a sorted tuple.

    Sequences (lists, arrays, tuples) become the τ-grid form — sorted,
    deduplicated, validated to ``[0, 1]`` — so plans, caches and wire
    payloads all key on one representation.
    """
    if tau is None:
        return None
    if isinstance(tau, (list, tuple, np.ndarray)):
        grid = tuple(sorted({float(value) for value in np.asarray(tau).ravel()}))
        if not grid:
            raise InvalidParameterError("a tau grid needs >= 1 threshold")
        if grid[0] < 0.0 or grid[-1] > 1.0:
            raise InvalidParameterError(
                f"tau grid values must be within [0, 1], got "
                f"[{grid[0]:g}, {grid[-1]:g}]"
            )
        return grid
    return float(tau)


# ---------------------------------------------------------------------------
# Plan policy: how much self-tuning the planner is allowed to do
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanPolicy:
    """The knobs steering cost-based plan choice (hashable, immutable).

    ``mode``
        ``"auto"`` (default) pilots a small sample of the workload,
        drops filter stages whose estimated selectivity is below
        ``min_selectivity`` or whose modeled cost exceeds the refine
        work they save, and orders the kept filters cheapest-first.
        ``"fixed"`` runs the technique's authored cascade verbatim
        (the pre-policy behaviour).  ``"never_index"`` tunes like
        ``auto`` but never admits an index stage.
    ``pilot_queries`` / ``pilot_candidates``
        The pilot sample's shape; drawn with ``pilot_seed`` pinned so
        every process — in-process, shard worker, daemon — scores the
        same sample and chooses the same plan.  Only *filter* stages
        (bounds, index) run on the pilot — they are deterministic and
        side-effect-free; refine stages are priced by the streamed-bytes
        model so a pilot can never advance a technique's seeded Monte
        Carlo streams.
    ``pilot_floor_cells``
        Workloads smaller than this run the authored cascade untouched
        (piloting a tiny workload costs more than it can save).
    ``min_selectivity``
        A filter stage must decide at least this fraction of the cells
        it sees to stay in the plan.
    ``cost_cache``
        Reuse chosen plans per ``(technique, workload-shape, policy)``
        key (see :func:`plan_for_workload`).
    ``use_index``
        Tri-state index toggle: ``None`` defers to the process default
        (:func:`set_default_policy` / ``set_index_enabled``).
    ``precision``
        ``"mixed"`` (default) lets bound stages stream the float32
        materialization tier (admissibly widened — decisions and values
        are identical to the double path); ``"float64"`` forces the
        legacy all-double execution.
    ``backend``
        Kernel backend for plan execution: ``None`` auto-selects the
        best available (:mod:`repro.core.kernels`), ``"numpy"`` pins
        the reference kernels, ``"numba"`` requests the optional JIT
        backend (falling back to numpy when not installed).
    """

    mode: str = "auto"
    pilot_queries: int = 4
    pilot_candidates: int = 48
    pilot_seed: int = 2012
    pilot_floor_cells: int = 8192
    min_selectivity: float = 0.02
    cost_cache: bool = True
    use_index: Optional[bool] = None
    precision: str = "mixed"
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in POLICY_MODES:
            raise InvalidParameterError(
                f"mode must be one of {POLICY_MODES}, got {self.mode!r}"
            )
        if self.precision not in PRECISION_MODES:
            raise InvalidParameterError(
                f"precision must be one of {PRECISION_MODES}, got "
                f"{self.precision!r}"
            )
        validate_backend_name(self.backend)
        for name in ("pilot_queries", "pilot_candidates"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.pilot_floor_cells < 0:
            raise InvalidParameterError(
                f"pilot_floor_cells must be >= 0, got {self.pilot_floor_cells}"
            )
        if not 0.0 <= self.min_selectivity <= 1.0:
            raise InvalidParameterError(
                f"min_selectivity must be within [0, 1], got "
                f"{self.min_selectivity}"
            )

    def to_wire(self) -> Dict[str, Any]:
        """The JSON-safe request form (only non-default fields)."""
        payload: Dict[str, Any] = {}
        default = PlanPolicy()
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value != getattr(default, name):
                payload[name] = value
        return payload

    @classmethod
    def from_wire(cls, payload: Any) -> "PlanPolicy":
        """Validated policy from a request payload dict."""
        if not isinstance(payload, dict):
            raise InvalidParameterError(
                f"policy must be an object, got {type(payload).__name__}"
            )
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise InvalidParameterError(
                f"unknown policy fields: {', '.join(sorted(unknown))}"
            )
        kwargs: Dict[str, Any] = {}
        for name, value in payload.items():
            if name in ("mode", "precision"):
                kwargs[name] = str(value)
            elif name == "use_index":
                kwargs[name] = None if value is None else bool(value)
            elif name == "backend":
                kwargs[name] = None if value is None else str(value)
            elif name == "cost_cache":
                kwargs[name] = bool(value)
            elif name == "min_selectivity":
                kwargs[name] = float(value)
            else:
                kwargs[name] = int(value)
        return cls(**kwargs)


def _initial_default_policy() -> PlanPolicy:
    """The process default; ``REPRO_PLAN_MODE`` overrides the mode (the
    nightly invariance loop runs the benchmark suite once per mode)."""
    mode = os.environ.get("REPRO_PLAN_MODE", "").strip() or "auto"
    return PlanPolicy(mode=mode)


_DEFAULT_POLICY = _initial_default_policy()
_POLICY_LOCK = threading.Lock()


def get_default_policy() -> PlanPolicy:
    """The process-wide policy used when none is passed explicitly."""
    return _DEFAULT_POLICY


def set_default_policy(policy: PlanPolicy) -> None:
    """Replace the process-wide default policy.

    This is the one piece of planner-global state; the legacy
    ``set_index_enabled`` toggle routes through it (``use_index``).
    """
    global _DEFAULT_POLICY
    if not isinstance(policy, PlanPolicy):
        raise InvalidParameterError(
            f"expected a PlanPolicy, got {type(policy).__name__}"
        )
    with _POLICY_LOCK:
        _DEFAULT_POLICY = policy


def resolve_policy(policy: Optional[PlanPolicy]) -> PlanPolicy:
    """``policy`` itself, or the process default when ``None``."""
    if policy is None:
        return _DEFAULT_POLICY
    if not isinstance(policy, PlanPolicy):
        raise InvalidParameterError(
            f"expected a PlanPolicy, got {type(policy).__name__}"
        )
    return policy


def effective_index_enabled(policy: Optional[PlanPolicy] = None) -> bool:
    """Whether plans may include an index stage under ``policy``.

    A policy's explicit ``use_index`` wins; ``None`` defers to the
    process default's, and an unset default means enabled.
    """
    policy = resolve_policy(policy)
    if policy.mode == "never_index":
        return False
    if policy.use_index is not None:
        return policy.use_index
    default = _DEFAULT_POLICY
    if default.use_index is not None:
        return default.use_index
    return True


# ---------------------------------------------------------------------------
# Plan explanation: why the chooser kept, dropped and ordered stages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageEstimate:
    """The pilot's verdict on one candidate stage.

    ``selectivity`` is the fraction of pilot cells the stage decided
    (of those it saw), ``seconds_per_cell`` its measured pilot cost,
    ``bytes_per_cell`` the cost model's streamed-bytes estimate, and
    ``kept``/``reason`` the chooser's decision and its one-line why.
    """

    stage: str
    selectivity: float
    seconds_per_cell: float
    bytes_per_cell: float
    kept: bool
    reason: str

    def to_payload(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "selectivity": self.selectivity,
            "seconds_per_cell": self.seconds_per_cell,
            "bytes_per_cell": self.bytes_per_cell,
            "kept": self.kept,
            "reason": self.reason,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "StageEstimate":
        return cls(
            stage=str(payload["stage"]),
            selectivity=float(payload["selectivity"]),
            seconds_per_cell=float(payload["seconds_per_cell"]),
            bytes_per_cell=float(payload["bytes_per_cell"]),
            kept=bool(payload["kept"]),
            reason=str(payload["reason"]),
        )


@dataclass(frozen=True)
class PlanExplanation:
    """What the planner chose for one workload, and why.

    Recorded on :class:`PruningStats` by every policy-aware execution,
    shipped through the service stats payload, and rendered by
    ``cli --stats`` / ``cli explain`` — the daemon and cluster paths
    surface exactly what an in-process run would.
    """

    technique_name: str
    kind: str
    mode: str
    chosen_stages: Tuple[str, ...]
    estimates: Tuple[StageEstimate, ...] = ()
    pilot_cells: int = 0
    cache_hit: bool = False
    rationale: str = ""

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe wire form (the service stats payload carries it)."""
        return {
            "technique": self.technique_name,
            "kind": self.kind,
            "mode": self.mode,
            "chosen_stages": list(self.chosen_stages),
            "estimates": [entry.to_payload() for entry in self.estimates],
            "pilot_cells": self.pilot_cells,
            "cache_hit": self.cache_hit,
            "rationale": self.rationale,
        }

    @classmethod
    def from_payload(
        cls, payload: Optional[Dict[str, Any]]
    ) -> Optional["PlanExplanation"]:
        """Tolerant inverse of :meth:`to_payload` (``None`` passes through,
        so stats from a pre-policy daemon still parse)."""
        if payload is None:
            return None
        return cls(
            technique_name=str(payload.get("technique", "")),
            kind=str(payload.get("kind", "")),
            mode=str(payload.get("mode", "fixed")),
            chosen_stages=tuple(payload.get("chosen_stages", ())),
            estimates=tuple(
                StageEstimate.from_payload(entry)
                for entry in payload.get("estimates", ())
            ),
            pilot_cells=int(payload.get("pilot_cells", 0)),
            cache_hit=bool(payload.get("cache_hit", False)),
            rationale=str(payload.get("rationale", "")),
        )

    def merged(self, other: "PlanExplanation") -> "PlanExplanation":
        """Combine two shards' explanations into one workload-level record.

        Shards of one workload run the same pinned-seed pilot recipe,
        so they normally choose identical stage lists — the estimates
        are then averaged weighted by pilot cells.  If a degenerate
        shard shape made a different choice, the first shard's plan is
        reported and the divergence is called out in the rationale
        instead of silently averaging incompatible records.
        """
        if other.chosen_stages != self.chosen_stages:
            note = (
                f"shards diverged: {'+'.join(other.chosen_stages) or 'none'}"
                f" vs {'+'.join(self.chosen_stages) or 'none'}"
            )
            if note in self.rationale:
                return self
            rationale = f"{self.rationale}; {note}" if self.rationale else note
            return replace(self, rationale=rationale)
        total = self.pilot_cells + other.pilot_cells
        if not self.estimates or not other.estimates or total == 0:
            return replace(self, pilot_cells=total)
        weight = self.pilot_cells / total
        other_by_stage = {entry.stage: entry for entry in other.estimates}
        estimates = []
        for entry in self.estimates:
            twin = other_by_stage.get(entry.stage)
            if twin is None:
                estimates.append(entry)
                continue
            estimates.append(
                replace(
                    entry,
                    selectivity=(
                        weight * entry.selectivity
                        + (1.0 - weight) * twin.selectivity
                    ),
                    seconds_per_cell=(
                        weight * entry.seconds_per_cell
                        + (1.0 - weight) * twin.seconds_per_cell
                    ),
                )
            )
        return replace(
            self,
            estimates=tuple(estimates),
            pilot_cells=total,
            cache_hit=self.cache_hit and other.cache_hit,
        )

    def summary_lines(self) -> List[str]:
        """The ``cli --stats`` rendering (indented under the stage table)."""
        chosen = " -> ".join(self.chosen_stages) or "(none)"
        cache = ", cached plan" if self.cache_hit else ""
        lines = [f"  plan [{self.mode}] {chosen}{cache}"]
        for entry in self.estimates:
            verdict = "kept" if entry.kept else "dropped"
            lines.append(
                f"    {entry.stage:12s} est. selectivity "
                f"{100.0 * entry.selectivity:5.1f}%, "
                f"~{entry.seconds_per_cell * 1e9:.0f} ns/cell "
                f"({entry.bytes_per_cell:.0f} B/cell) -> {verdict}: "
                f"{entry.reason}"
            )
        if self.rationale:
            lines.append(f"    rationale: {self.rationale}")
        return lines


@dataclass(frozen=True)
class ExplainReport:
    """What ``QuerySet.explain()`` returns: chosen plan + est vs actual.

    ``records`` pairs each *executed* stage with the pilot's estimated
    selectivity (``None`` when the stage was not piloted — fixed mode,
    tiny workloads, cache-bypassed runs) and the actual selectivity
    measured during execution.  Identical across in-process, daemon
    and cluster backends for the same workload and policy.
    """

    technique_name: str
    kind: str
    mode: str
    plan: Tuple[str, ...]
    records: Tuple[Dict[str, Any], ...]
    rationale: str
    cache_hit: bool
    executor: Optional[Dict] = None
    #: Kernel backend / bound-stage dtype the execution recorded
    #: (``None`` on legacy stats records).
    backend: Optional[str] = None
    bound_dtype: Optional[str] = None

    @classmethod
    def from_stats(cls, stats: "PruningStats") -> "ExplainReport":
        """Build the report off one executed plan's stats record."""
        explanation = stats.explanation
        estimates = {}
        if explanation is not None:
            estimates = {
                entry.stage: entry for entry in explanation.estimates
            }
        records = []
        executed = set()
        for entry in stats.stages:
            executed.add(entry.stage)
            estimate = estimates.get(entry.stage)
            actual = (
                entry.decided / entry.entered if entry.entered else 0.0
            )
            records.append(
                {
                    "stage": entry.stage,
                    "estimated_selectivity": (
                        estimate.selectivity if estimate else None
                    ),
                    "actual_selectivity": actual,
                    "decided": entry.decided,
                    "entered": entry.entered,
                }
            )
        # Dropped stages never execute, so they have no actuals — their
        # pilot estimate is still part of the decision record.
        for estimate in (explanation.estimates if explanation else ()):
            if estimate.stage in executed:
                continue
            records.append(
                {
                    "stage": estimate.stage,
                    "estimated_selectivity": estimate.selectivity,
                    "actual_selectivity": None,
                    "decided": 0,
                    "entered": 0,
                }
            )
        return cls(
            technique_name=stats.technique_name,
            kind=stats.kind,
            mode=explanation.mode if explanation else "fixed",
            plan=tuple(entry.stage for entry in stats.stages),
            records=tuple(records),
            rationale=explanation.rationale if explanation else "",
            cache_hit=explanation.cache_hit if explanation else False,
            executor=stats.executor,
            backend=stats.backend,
            bound_dtype=stats.bound_dtype,
        )

    def summary(self) -> str:
        """Human-readable rendering (the ``cli explain`` output)."""
        chosen = " -> ".join(self.plan) or "(none)"
        cache = " (cached plan)" if self.cache_hit else ""
        lines = [
            f"{self.technique_name} ({self.kind}) plan "
            f"[{self.mode}]{cache}: {chosen}"
        ]
        for record in self.records:
            estimated = record["estimated_selectivity"]
            actual = record["actual_selectivity"]
            est = (
                f"{100.0 * estimated:5.1f}%"
                if estimated is not None
                else "  n/a"
            )
            if actual is None:
                lines.append(
                    f"  {record['stage']:12s} estimated {est}  "
                    f"(dropped by the chooser)"
                )
                continue
            lines.append(
                f"  {record['stage']:12s} estimated {est}  actual "
                f"{100.0 * actual:5.1f}% "
                f"({record['decided']}/{record['entered']} cells)"
            )
        if self.backend or self.bound_dtype:
            bits = []
            if self.backend:
                bits.append(f"backend={self.backend}")
            if self.bound_dtype:
                bits.append(f"bound dtype={self.bound_dtype}")
            lines.append(f"  kernels: {', '.join(bits)}")
        if self.rationale:
            lines.append(f"  rationale: {self.rationale}")
        if self.executor:
            pairs = ", ".join(
                f"{key}={value}" for key, value in self.executor.items()
            )
            lines.append(f"  executor: {pairs}")
        return "\n".join(lines)


@dataclass(frozen=True)
class StageStats:
    """One plan stage's contribution to a workload.

    ``entered`` counts the undecided cells the stage received (its
    *visited* set), ``skipped`` the cells earlier stages already settled
    so this stage never saw, ``decided`` how many of the visited cells
    it settled, ``refined`` how many exact kernel evaluations ran, and
    ``samples_drawn`` how many Monte Carlo draws were actually
    *evaluated* (the expensive part — the integer draws themselves are
    free and always taken upfront for seed parity).
    """

    stage: str
    entered: int = 0
    decided: int = 0
    refined: int = 0
    samples_drawn: int = 0
    skipped: int = 0
    seconds: float = 0.0

    @property
    def visited(self) -> int:
        """Cells this stage actually visited (alias for ``entered``)."""
        return self.entered

    def merged(self, other: "StageStats") -> "StageStats":
        """Element-wise sum with another shard's stats for this stage."""
        return StageStats(
            stage=self.stage,
            entered=self.entered + other.entered,
            decided=self.decided + other.decided,
            refined=self.refined + other.refined,
            samples_drawn=self.samples_drawn + other.samples_drawn,
            skipped=self.skipped + other.skipped,
            seconds=self.seconds + other.seconds,
        )


@dataclass(frozen=True)
class PruningStats:
    """Filter-and-refine effectiveness of one executed plan.

    ``stages`` preserves execution order; on a sharded run the per-shard
    stats are merged stage-by-stage and the executor's chosen shard plan
    is logged in ``executor``.
    """

    technique_name: str
    kind: str
    n_queries: int
    n_candidates: int
    stages: Tuple[StageStats, ...] = ()
    executor: Optional[Dict] = None
    #: Explicit cell count for records aggregated across *different*
    #: workloads (the CLI's per-command roll-up), where ``M × N`` of any
    #: single workload no longer describes the total.
    cells: Optional[int] = None
    #: Why this plan was chosen (policy-aware executions record it;
    #: merged shard-by-shard so the sharded/cluster paths explain
    #: themselves the same way an in-process run does).
    explanation: Optional[PlanExplanation] = None
    #: Kernel backend that executed the plan (``"numpy"``/``"numba"``);
    #: ``None`` on legacy records and direct ``plan.execute`` calls.
    backend: Optional[str] = None
    #: Dtype the bound stages streamed (``"float32"`` under the mixed
    #: precision tier); ``None`` when no bound stage ran.
    bound_dtype: Optional[str] = None

    @property
    def total_cells(self) -> int:
        """Workload size (``M × N``, unless explicitly overridden)."""
        if self.cells is not None:
            return self.cells
        return self.n_queries * self.n_candidates

    @property
    def total_seconds(self) -> float:
        """Wall time summed over every stage."""
        return float(sum(entry.seconds for entry in self.stages))

    @property
    def samples_drawn(self) -> int:
        """Monte Carlo draws evaluated across all stages."""
        return int(sum(entry.samples_drawn for entry in self.stages))

    def decided_by(self, stage: str) -> int:
        """Cells decided by the named stage (0 when absent)."""
        return sum(
            entry.decided for entry in self.stages if entry.stage == stage
        )

    def stage(self, name: str) -> Optional[StageStats]:
        """The (merged) stats entry for one stage name, if present."""
        for entry in self.stages:
            if entry.stage == name:
                return entry
        return None

    @property
    def index_selectivity(self) -> Optional[float]:
        """Fraction of cells the summarization index kept as candidates.

        ``None`` when no index stage ran (or the workload had no cells);
        ``1.0`` means the index pruned nothing.
        """
        entry = self.stage("index")
        if entry is None or self.total_cells <= 0:
            return None
        return 1.0 - entry.decided / self.total_cells

    def merged(self, other: "PruningStats") -> "PruningStats":
        """Combine with another shard of the same plan.

        Stages are summed by name in this record's order; stages only
        the other shard ran (a technique may plan differently per
        shard in degenerate cases) are appended.
        """
        pending: Dict[str, List[StageStats]] = {}
        for entry in other.stages:
            pending.setdefault(entry.stage, []).append(entry)
        merged: List[StageStats] = []
        for entry in self.stages:
            for extra in pending.pop(entry.stage, []):
                entry = entry.merged(extra)
            merged.append(entry)
        for extras in pending.values():
            merged.extend(extras)
        if self.explanation is None:
            explanation = other.explanation
        elif other.explanation is None:
            explanation = self.explanation
        else:
            explanation = self.explanation.merged(other.explanation)
        return PruningStats(
            technique_name=self.technique_name,
            kind=self.kind,
            n_queries=self.n_queries,
            n_candidates=self.n_candidates,
            stages=tuple(merged),
            executor=self.executor if self.executor else other.executor,
            explanation=explanation,
            backend=self.backend or other.backend,
            bound_dtype=self.bound_dtype or other.bound_dtype,
        )

    @staticmethod
    def merge_shards(
        shards: Sequence["PruningStats"],
        n_queries: int,
        n_candidates: int,
        executor: Optional[Dict] = None,
    ) -> Optional["PruningStats"]:
        """Merge per-shard stats into one workload-level record.

        Stage counters sum stage-by-stage and the shards'
        :class:`PlanExplanation` records merge pilot-cell-weighted
        (see :meth:`PlanExplanation.merged`), so estimated-vs-actual
        selectivities — hence ``explain()`` output — read the same
        whether the plan ran in-process, sharded, or on a cluster.
        """
        shards = [s for s in shards if s is not None]
        if not shards:
            return None
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merged(shard)
        return replace(
            merged,
            n_queries=n_queries,
            n_candidates=n_candidates,
            executor=executor,
        )

    def summary(self) -> str:
        """One human-readable line per stage (the CLI's ``--stats`` view)."""
        total = max(self.total_cells, 1)
        if self.cells is not None:
            shape = f"{self.cells} cells"
        else:
            shape = f"{self.n_queries}x{self.n_candidates}"
        lines = [f"{self.technique_name} ({self.kind}, {shape}):"]
        for entry in self.stages:
            line = (
                f"  {entry.stage:12s} decided {entry.decided}/{total} "
                f"({100.0 * entry.decided / total:5.1f}%) "
                f"in {entry.seconds * 1e3:8.2f} ms"
            )
            if entry.skipped:
                line += (
                    f", visited {entry.visited}, skipped {entry.skipped}"
                )
            if entry.refined:
                line += f", {entry.refined} refined"
            if entry.samples_drawn:
                line += f", {entry.samples_drawn} MC samples"
            lines.append(line)
        selectivity = self.index_selectivity
        if selectivity is not None:
            kept = total - self.decided_by("index")
            lines.append(
                f"  index selectivity {kept}/{total} candidates kept "
                f"({100.0 * selectivity:5.1f}%)"
            )
        if self.backend or self.bound_dtype:
            bits = []
            if self.backend:
                bits.append(f"backend={self.backend}")
            if self.bound_dtype:
                bits.append(f"bound dtype={self.bound_dtype}")
            lines.append(f"  kernels      {', '.join(bits)}")
        if self.executor:
            pairs = ", ".join(
                f"{key}={value}" for key, value in self.executor.items()
            )
            lines.append(f"  executor     {pairs}")
        if self.explanation is not None:
            lines.extend(self.explanation.summary_lines())
        return "\n".join(lines)


@dataclass
class PlanContext:
    """Mutable state one plan execution threads through its stages."""

    technique: "object"
    kind: str
    queries: Sequence
    collection: Sequence
    epsilons: Optional[np.ndarray]
    #: Decision target — a scalar τ or a τ-grid tuple (one bracketing
    #: pass covers the whole optimal-τ sweep).
    tau: Union[None, float, Tuple[float, ...]]
    values: np.ndarray
    undecided: np.ndarray
    #: Top-k target for kNN workloads — lets the index stage derive
    #: per-row pruning thresholds from upper bounds.  ``exclude`` marks
    #: at most one self-match column per row (``-1`` for none).
    knn_k: Optional[int] = None
    exclude: Optional[np.ndarray] = None
    stage_stats: List[StageStats] = field(default_factory=list)
    #: The policy this execution runs under (stages consult it — the
    #: index stage's enable switch lives here, not in module state).
    policy: Optional[PlanPolicy] = None
    #: Dtype the bound stage actually streamed this execution (set by
    #: :class:`BoundStage`; surfaces in ``PruningStats.bound_dtype``).
    bound_dtype: Optional[str] = None

    @property
    def n_undecided(self) -> int:
        """Cells still awaiting a verdict."""
        return int(np.count_nonzero(self.undecided))


class PlanStage(abc.ABC):
    """One step of a filter-and-refine cascade.

    A stage reads the context's ``undecided`` mask, writes verdicts into
    ``values`` for the cells it settles, clears those cells from the
    mask, and returns ``(refined, samples_drawn)`` accounting.  Stage
    timing and decided-cell counting are handled by
    :meth:`QueryPlan.execute`.
    """

    name: str = "stage"

    @abc.abstractmethod
    def run(self, context: PlanContext) -> Tuple[int, int]:
        """Execute the stage; returns ``(refined, samples_drawn)``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BoundStage(PlanStage):
    """Decide cells whose lower/upper distance bounds clear ε.

    The technique supplies ``matrix_bounds(queries, collection)`` —
    ``(lower, upper)`` stacks valid for *every* materialization of each
    pair, computed from engine-cached stacks (bounding intervals,
    band-inflated envelopes).  Cells with ``lower > ε`` are certain
    misses (probability 0), cells with ``upper <= ε`` certain hits
    (probability 1); ``slack`` guards the comparisons for techniques
    whose batched bound sums may reorder floats (MUNICH-DTW uses
    :data:`~repro.distances.dtw_batch.PRUNE_SLACK`).

    Under a ``precision="mixed"`` policy the stage asks the technique
    for its float32 bound tier (``matrix_bounds(..., precision=
    "float32")``) — bounds computed from the engine's half-width
    materializations and *admissibly widened* by the technique, so
    every cell decided here would also be decided (identically) by the
    float64 path; the handful of borderline cells the widening leaves
    open simply fall through to the exact float64 refine.  Techniques
    without a float32 tier (the ``precision`` keyword raises
    ``TypeError``) transparently keep the legacy double path.
    """

    name = "bounds"

    def __init__(self, slack: float = 0.0) -> None:
        if slack < 0.0:
            raise InvalidParameterError(f"slack must be >= 0, got {slack}")
        self.slack = slack

    def run(self, context: PlanContext) -> Tuple[int, int]:
        if context.kind != "probability" or context.epsilons is None:
            raise InvalidParameterError(
                "BoundStage requires a probability workload with epsilons"
            )
        policy = context.policy
        bounds = None
        if policy is not None and policy.precision == "mixed":
            try:
                bounds = context.technique.matrix_bounds(
                    context.queries, context.collection,
                    precision="float32",
                )
            except TypeError:
                bounds = None
            else:
                context.bound_dtype = "float32"
        if bounds is None:
            bounds = context.technique.matrix_bounds(
                context.queries, context.collection
            )
            context.bound_dtype = "float64"
        lower, upper = bounds
        guard_hi = (context.epsilons * (1.0 + self.slack))[:, None]
        guard_lo = (context.epsilons * (1.0 - self.slack))[:, None]
        misses = context.undecided & (lower > guard_hi)
        hits = context.undecided & (upper <= guard_lo)
        context.values[misses] = 0.0
        context.values[hits] = 1.0
        context.undecided &= ~(misses | hits)
        return 0, 0

    def __repr__(self) -> str:
        return f"BoundStage(slack={self.slack:g})"


class ConcentrationStage(PlanStage):
    """Decide cells from cheap brackets on their exact probability.

    The technique supplies ``probability_brackets(queries, collection,
    epsilons, undecided)`` — ``(M, N)`` ``(lower, upper)`` matrices that
    contain the value its refine kernel would compute for every
    ``undecided`` cell (or ``None`` when it has no bracket for this
    workload, which makes the stage a sound no-op).  Cells with no
    target τ inside their bracket are settled by
    :func:`bracket_verdict` and record the bracket end on the verdict's
    side.  Planned only for decision workloads (a scalar τ or a τ
    grid); value-mode plans never include it, so exact probability
    matrices stay exact.
    """

    name = "concentration"

    def run(self, context: PlanContext) -> Tuple[int, int]:
        if context.tau is None or context.epsilons is None:
            raise InvalidParameterError(
                "ConcentrationStage requires a decision workload "
                "(epsilons and tau)"
            )
        brackets = context.technique.probability_brackets(
            context.queries,
            context.collection,
            context.epsilons,
            context.undecided,
        )
        if brackets is None:
            return 0, 0
        lower, upper = brackets
        cells = np.nonzero(context.undecided)
        decided, value = bracket_verdict(
            lower[cells], upper[cells], context.tau
        )
        rows, cols = cells[0][decided], cells[1][decided]
        context.values[rows, cols] = value[decided]
        context.undecided[rows, cols] = False
        return 0, 0


class RefineStage(PlanStage):
    """Run the technique's exact kernel on the surviving mask.

    Delegates to
    :meth:`~repro.queries.techniques.Technique.refine_matrix`, which
    must fill every still-undecided cell; a refine stage therefore
    always terminates the plan's undecided set.
    """

    name = "refine"
    #: Whether the context's τ is forwarded to the refine kernel
    #: (enables the adaptive stopping rule in the subclass).
    forward_tau = False

    def run(self, context: PlanContext) -> Tuple[int, int]:
        tau = context.tau if self.forward_tau else None
        refined, samples = context.technique.refine_matrix(
            context.kind,
            context.queries,
            context.collection,
            context.epsilons,
            context.values,
            context.undecided,
            tau=tau,
        )
        context.undecided[:] = False
        return int(refined), int(samples)


class AdaptiveMCStage(RefineStage):
    """Monte Carlo refinement with the sequential stopping rule.

    Identical to :class:`RefineStage` except that the decision
    threshold ``τ`` is forwarded to the technique's refine kernel, which
    evaluates the seeded draw stack in escalating rounds
    (:func:`adaptive_mc_schedule`) and stops as soon as
    :func:`bracket_verdict` settles the cell.  Reported values
    are guaranteed to sit on the same side of ``τ`` as the fixed-sample
    path's, so decision queries (``prob_range``) are unchanged — only
    cheaper.
    """

    name = "adaptive-mc"
    forward_tau = True


class QueryPlan:
    """An ordered filter-and-refine cascade over one ``(M, N)`` workload."""

    __slots__ = ("stages",)

    def __init__(self, stages: Sequence[PlanStage]) -> None:
        if not stages:
            raise InvalidParameterError("a query plan needs >= 1 stage")
        self.stages = tuple(stages)

    def execute(
        self,
        technique,
        kind: str,
        queries: Sequence,
        collection: Sequence,
        epsilon=None,
        tau: Union[None, float, Tuple[float, ...]] = None,
        knn_k: Optional[int] = None,
        exclude: Optional[np.ndarray] = None,
        policy: Optional[PlanPolicy] = None,
    ) -> Tuple[np.ndarray, PruningStats]:
        """Run the cascade; returns ``(values, stats)``.

        ``epsilon`` (scalar or per-query vector) is required for
        probability workloads; for *distance* workloads it optionally
        marks a decision-mode range query, letting index stages retire
        certain non-matches as ``+inf`` instead of materializing them.
        ``tau`` is the optional decision threshold adaptive stages stop
        against; ``knn_k``/``exclude`` describe a top-k workload the
        same way (pruned cells become ``+inf``; ``exclude`` holds each
        row's self-match column, ``-1`` for none).
        """
        from .techniques import _epsilon_vector

        if kind not in PLAN_KINDS:
            raise InvalidParameterError(
                f"kind must be one of {PLAN_KINDS}, got {kind!r}"
            )
        n_queries = len(queries)
        n_candidates = len(collection)
        if kind == "probability":
            epsilons = _epsilon_vector(epsilon, n_queries)
        elif kind == "distance" and epsilon is not None:
            epsilons = _epsilon_vector(epsilon, n_queries)
        elif epsilon is not None:
            raise InvalidParameterError(f"{kind} plans take no epsilon")
        else:
            epsilons = None
        if knn_k is not None:
            if kind != "distance":
                raise InvalidParameterError(
                    f"knn_k applies to distance plans only, got {kind!r}"
                )
            if knn_k < 1:
                raise InvalidParameterError(
                    f"knn_k must be >= 1, got {knn_k}"
                )
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=np.intp)
            if exclude.shape != (n_queries,):
                raise InvalidParameterError(
                    f"exclude must hold one index per query row, got "
                    f"shape {exclude.shape} for {n_queries} rows"
                )
        values = np.empty((n_queries, n_candidates))
        if n_queries == 0:
            return values, PruningStats(
                technique_name=technique.name,
                kind=kind,
                n_queries=0,
                n_candidates=n_candidates,
                stages=tuple(
                    StageStats(stage=stage.name) for stage in self.stages
                ),
            )
        context = PlanContext(
            technique=technique,
            kind=kind,
            queries=queries,
            collection=collection,
            epsilons=epsilons,
            tau=tau,
            values=values,
            undecided=np.ones((n_queries, n_candidates), dtype=bool),
            knn_k=knn_k,
            exclude=exclude,
            policy=policy,
        )
        total_cells = n_queries * n_candidates
        for stage in self.stages:
            entered = context.n_undecided
            started = time.perf_counter()
            refined, samples = stage.run(context)
            elapsed = time.perf_counter() - started
            context.stage_stats.append(
                StageStats(
                    stage=stage.name,
                    entered=entered,
                    decided=entered - context.n_undecided,
                    refined=refined,
                    samples_drawn=samples,
                    skipped=total_cells - entered,
                    seconds=elapsed,
                )
            )
        if context.n_undecided:
            raise InvalidParameterError(
                f"plan {self!r} left {context.n_undecided} cells undecided; "
                f"every plan must end in a refine stage"
            )
        return values, PruningStats(
            technique_name=technique.name,
            kind=kind,
            n_queries=n_queries,
            n_candidates=n_candidates,
            stages=tuple(context.stage_stats),
            bound_dtype=context.bound_dtype,
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(stage) for stage in self.stages)
        return f"QueryPlan([{inner}])"


# ---------------------------------------------------------------------------
# Cost-based plan choice: pilot sampling, the bytes-streamed model, cache
# ---------------------------------------------------------------------------


def _series_length(collection: Sequence) -> int:
    """Timestamp count of the workload's series (cost-model input)."""
    try:
        return max(1, len(collection[0]))
    except (IndexError, TypeError):
        return 1


def _atoms_per_timestamp(queries: Sequence, collection: Sequence) -> int:
    """Sample pairs per timestamp, ``s_q·s_c`` (1 for single-valued series)."""
    try:
        first_query, first_candidate = queries[0], collection[0]
    except (IndexError, TypeError):
        return 1
    return getattr(first_query, "samples_per_timestamp", 1) * getattr(
        first_candidate, "samples_per_timestamp", 1
    )


#: Passes over a cell's binned-residual tensor the concentration stage
#: makes: about ten for binning and moments, then on the one informative
#: side an exponential per λ iterate and two tilted moments per Newton
#: step.
CONCENTRATION_PASSES = 16


def _stage_bytes_per_cell(
    stage_name: str,
    technique,
    length: int,
    policy: Optional[PlanPolicy] = None,
    atoms: int = 1,
) -> float:
    """Streamed bytes one cell costs a stage, under the cost model.

    Deliberately coarse — the point is *relative* stage ordering on a
    memory-bound machine, not absolute throughput: an index stage
    streams two ``S``-segment float64 summaries, a bound stage two
    full-length interval stacks, an exact refine two full-length value
    stacks, and a Monte Carlo refine its whole per-cell draw stack.
    Dtype-aware: under a ``precision="mixed"`` policy the bound stage
    streams the float32 tier, so its cells cost half the bytes — which
    is exactly what lets the pilot keep a filter the double-precision
    pricing would have dropped.

    MUNICH's convolution refine streams its DP state: per timestamp,
    each of the ``atoms = s_q·s_c`` sample pairs shifts an
    ``n_bins``-wide float64 pmf in and out (``16·n·n_bins·atoms``).  The
    concentration stage that can spare it reads the ``(n, atoms)``
    binned-residual tensor :data:`CONCENTRATION_PASSES` times.
    """
    if stage_name == "index":
        segments = getattr(technique, "index_segments", None) or 1
        return 16.0 * segments
    if stage_name == "bounds":
        if policy is not None and policy.precision == "mixed":
            return 16.0 * length
        return 32.0 * length
    if stage_name == "concentration":
        return 8.0 * length * atoms * CONCENTRATION_PASSES
    munich = getattr(technique, "_munich", None)
    method = getattr(munich, "method", "")
    if method == "montecarlo":
        return 16.0 * length * max(1, getattr(munich, "n_samples", 1))
    if method == "convolution":
        return 16.0 * length * getattr(munich, "n_bins", 1) * atoms
    return 16.0 * length


def _pilot_workload(
    queries: Sequence,
    collection: Sequence,
    epsilons: Optional[np.ndarray],
    policy: PlanPolicy,
) -> Tuple[Sequence, Sequence, Optional[np.ndarray]]:
    """The pinned-seed pilot sample of one ``(M, N)`` workload."""
    n_queries = len(queries)
    n_candidates = len(collection)
    rng = np.random.default_rng(policy.pilot_seed)
    rows = np.sort(
        rng.choice(
            n_queries,
            size=min(policy.pilot_queries, n_queries),
            replace=False,
        )
    )
    cols = np.sort(
        rng.choice(
            n_candidates,
            size=min(policy.pilot_candidates, n_candidates),
            replace=False,
        )
    )
    pilot_queries = [queries[int(i)] for i in rows]
    pilot_collection = [collection[int(j)] for j in cols]
    pilot_eps = epsilons[rows] if epsilons is not None else None
    return pilot_queries, pilot_collection, pilot_eps


def tune_plan(
    technique,
    plan: QueryPlan,
    kind: str,
    queries: Sequence,
    collection: Sequence,
    epsilons: Optional[np.ndarray],
    tau,
    knn_k: Optional[int],
    policy: PlanPolicy,
) -> Tuple[QueryPlan, PlanExplanation]:
    """Score the cascade on a pilot sample and choose the stages to run.

    Only *filter* stages (everything before the plan's final refine)
    are candidates for dropping/reordering — the final refine stage is
    what guarantees every cell gets a verdict, and filter stages are
    sound (they decide a cell only when its outcome is certain), so any
    subset in any order produces identical decisions; the chooser
    affects cost only.  Filters run on the pinned-seed pilot to
    estimate selectivity and per-cell cost; the refine stage is priced
    by the streamed-bytes model (running it might consume seeded Monte
    Carlo draws).  A filter stays when its estimated selectivity clears
    ``policy.min_selectivity`` *and* the refine work it saves exceeds
    its own modeled cost; the kept filters run cheapest-first by
    modeled bytes (deterministic across processes, unlike wall-clock).
    """
    names = tuple(stage.name for stage in plan.stages)
    length = _series_length(collection)
    atoms = _atoms_per_timestamp(queries, collection)
    prunable = list(plan.stages[:-1])
    final = plan.stages[-1]
    if policy.mode == "fixed":
        return plan, PlanExplanation(
            technique_name=technique.name,
            kind=kind,
            mode=policy.mode,
            chosen_stages=names,
            rationale="fixed policy: technique cascade as authored",
        )
    if not prunable:
        return plan, PlanExplanation(
            technique_name=technique.name,
            kind=kind,
            mode=policy.mode,
            chosen_stages=names,
            rationale="single-stage plan; nothing to tune",
        )
    total_cells = len(queries) * len(collection)
    if total_cells < policy.pilot_floor_cells:
        return plan, PlanExplanation(
            technique_name=technique.name,
            kind=kind,
            mode=policy.mode,
            chosen_stages=names,
            rationale=(
                f"workload of {total_cells} cells is below the pilot "
                f"floor ({policy.pilot_floor_cells}); authored cascade"
            ),
        )
    if knn_k is not None and policy.pilot_candidates <= 2 * knn_k:
        return plan, PlanExplanation(
            technique_name=technique.name,
            kind=kind,
            mode=policy.mode,
            chosen_stages=names,
            rationale=(
                f"pilot of {policy.pilot_candidates} candidates is too "
                f"small to judge top-{knn_k} pruning; authored cascade"
            ),
        )
    pilot_queries, pilot_collection, pilot_eps = _pilot_workload(
        queries, collection, epsilons, policy
    )
    pilot_cells = len(pilot_queries) * len(pilot_collection)
    context = PlanContext(
        technique=technique,
        kind=kind,
        queries=pilot_queries,
        collection=pilot_collection,
        epsilons=pilot_eps,
        tau=tau,
        values=np.empty((len(pilot_queries), len(pilot_collection))),
        undecided=np.ones(
            (len(pilot_queries), len(pilot_collection)), dtype=bool
        ),
        knn_k=knn_k,
        exclude=None,
        policy=policy,
    )
    refine_cost = (
        _stage_bytes_per_cell(final.name, technique, length, policy, atoms)
        / STREAM_BYTES_PER_SECOND
    )
    estimates: List[StageEstimate] = []
    kept: List[Tuple[float, int, PlanStage]] = []
    pilot_broken = False
    for position, stage in enumerate(prunable):
        bytes_per_cell = _stage_bytes_per_cell(
            stage.name, technique, length, policy, atoms
        )
        if pilot_broken:
            kept.append((bytes_per_cell, position, stage))
            estimates.append(
                StageEstimate(
                    stage=stage.name,
                    selectivity=0.0,
                    seconds_per_cell=0.0,
                    bytes_per_cell=bytes_per_cell,
                    kept=True,
                    reason="pilot aborted earlier; kept as authored",
                )
            )
            continue
        entered = context.n_undecided
        started = time.perf_counter()
        try:
            stage.run(context)
        except Exception as error:  # sound fallback: keep as authored
            pilot_broken = True
            kept.append((bytes_per_cell, position, stage))
            estimates.append(
                StageEstimate(
                    stage=stage.name,
                    selectivity=0.0,
                    seconds_per_cell=0.0,
                    bytes_per_cell=bytes_per_cell,
                    kept=True,
                    reason=f"pilot failed ({type(error).__name__}); kept",
                )
            )
            continue
        elapsed = time.perf_counter() - started
        decided = entered - context.n_undecided
        selectivity = decided / entered if entered else 0.0
        seconds_per_cell = elapsed / max(entered, 1)
        stage_cost = max(
            seconds_per_cell, bytes_per_cell / STREAM_BYTES_PER_SECOND
        )
        if selectivity < policy.min_selectivity:
            keep = False
            reason = (
                f"estimated selectivity {100.0 * selectivity:.1f}% is "
                f"below the {100.0 * policy.min_selectivity:.1f}% floor"
            )
        elif selectivity * refine_cost <= stage_cost:
            keep = False
            reason = "costs more than the refine work it saves"
        else:
            keep = True
            reason = (
                f"saves ~{selectivity * refine_cost / stage_cost:.1f}x "
                f"its cost in refine work"
            )
        if keep:
            kept.append((bytes_per_cell, position, stage))
        estimates.append(
            StageEstimate(
                stage=stage.name,
                selectivity=selectivity,
                seconds_per_cell=seconds_per_cell,
                bytes_per_cell=bytes_per_cell,
                kept=keep,
                reason=reason,
            )
        )
    kept.sort(key=lambda entry: (entry[0], entry[1]))
    stages = tuple(stage for _, _, stage in kept) + (final,)
    dropped = len(prunable) - len(kept)
    rationale = (
        f"pilot scored {pilot_cells} of {total_cells} cells: kept "
        f"{len(kept)}/{len(prunable)} filter stages"
        + (f", dropped {dropped}" if dropped else "")
        + ", ordered cheapest-first"
    )
    return QueryPlan(stages), PlanExplanation(
        technique_name=technique.name,
        kind=kind,
        mode=policy.mode,
        chosen_stages=tuple(stage.name for stage in stages),
        estimates=tuple(estimates),
        pilot_cells=pilot_cells,
        cache_hit=False,
        rationale=rationale,
    )


class _PlanCache:
    """Bounded LRU of chosen plans per (technique, workload-shape, policy).

    Keys use the technique's identity with a strong reference pinned in
    the entry (the engine cache's precedent), so ids can never be
    recycled while an entry lives.
    """

    def __init__(self, max_entries: int = 128) -> None:
        self._entries: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self._max_entries = max_entries
        self._lock = threading.Lock()

    def get(self, key: Tuple) -> Optional[Tuple[QueryPlan, PlanExplanation]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            _, plan, explanation = entry
            return plan, explanation

    def put(
        self,
        key: Tuple,
        technique,
        plan: QueryPlan,
        explanation: PlanExplanation,
    ) -> None:
        with self._lock:
            self._entries[key] = (technique, plan, explanation)
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_PLAN_CACHE = _PlanCache()


def clear_plan_cache() -> None:
    """Drop every cached plan (tests; or after mutating a collection)."""
    _PLAN_CACHE.clear()


def plan_cache_size() -> int:
    """Number of cached plans (observability hook)."""
    return len(_PLAN_CACHE)


def _epsilon_signature(epsilon) -> Optional[Tuple]:
    """A coarse ε fingerprint for the plan-cache key.

    Selectivity depends on the threshold's magnitude, not its exact
    per-query values — the mean (rounded) plus the vector-vs-scalar
    shape is enough to keep workloads with materially different
    thresholds from sharing a plan.
    """
    if epsilon is None:
        return None
    values = np.asarray(epsilon, dtype=np.float64)
    mean = float(np.round(values.mean(), 9)) if values.size else 0.0
    return (int(values.ndim), int(values.size), mean)


def plan_for_workload(
    technique,
    plan: QueryPlan,
    kind: str,
    queries: Sequence,
    collection: Sequence,
    epsilon,
    tau,
    knn_k: Optional[int],
    policy: PlanPolicy,
) -> Tuple[QueryPlan, PlanExplanation]:
    """The tuned (possibly cached) plan for one workload.

    ``plan`` is the technique's authored cascade (``build_plan`` plus
    the index-stage prepend); the chooser tunes it under ``policy`` and
    memoizes the result per ``(technique identity, kind, M, N, ε
    signature, τ, k, policy)`` — one pilot prices a whole sweep of
    identically-shaped executions.
    """
    from .techniques import _epsilon_vector

    epsilons = (
        _epsilon_vector(epsilon, len(queries))
        if epsilon is not None
        else None
    )
    key: Optional[Tuple] = None
    if policy.cost_cache and policy.mode != "fixed":
        key = (
            id(technique),
            kind,
            len(queries),
            len(collection),
            _epsilon_signature(epsilon),
            tau,
            knn_k,
            policy,
        )
        cached = _PLAN_CACHE.get(key)
        if cached is not None:
            plan, explanation = cached
            return plan, replace(explanation, cache_hit=True)
    tuned, explanation = tune_plan(
        technique, plan, kind, queries, collection, epsilons, tau, knn_k, policy
    )
    if key is not None:
        _PLAN_CACHE.put(key, technique, tuned, explanation)
    return tuned, explanation
