"""Declarative campaign specifications.

A :class:`CampaignSpec` describes a *grid* of experiment scenarios — graph
family × node count × AS policy × churn schedule × channel loss × engine
configuration × seed — plus the shared run parameters (simulation-time and
event budgets, soft-state lifetimes, monitors).  :meth:`CampaignSpec.expand`
turns the grid into a deterministic, ordered list of
:class:`RunDescriptor` s: plain-data, picklable, JSON-round-trippable
descriptions from which a worker process can materialize and execute one run
with no other context.  The same spec always expands to the same descriptors
(and, through the seeded generators and engines, to the same per-run
results), which is what makes campaign artifacts diffable and campaigns
resumable.

Specs are written in TOML (stdlib ``tomllib``) or JSON::

    name = "smoke"
    families = ["tree"]
    sizes = [16]
    policies = ["shortest_path"]
    seeds = [0, 1, 2, 3]
    churn_events = [0]
    loss = [0.0]
    until = 20.0

List-valued fields are grid *axes*; scalar fields apply to every run.  The
``policies`` axis accepts policy kinds from
:data:`repro.scenarios.policies.POLICY_KINDS` plus ``"none"`` (the plain
path-vector program with no policy layer).  The ``engine`` axis is a list of
:class:`~repro.dn.engine.EngineConfig` override tables (default: one empty
override = engine defaults).
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping, Optional, Sequence

from ..dn.engine import EngineConfig
from ..scenarios.generator import SCENARIO_FAMILIES
from ..scenarios.policies import POLICY_KINDS, first_triangle
from ..fvn.monitors import MONITOR_KINDS

#: ``policies`` entry meaning "no policy layer, plain path-vector program"
NO_POLICY = "none"

_ENGINE_FIELDS = {f.name for f in fields(EngineConfig)}


@dataclass(frozen=True)
class RunDescriptor:
    """Everything needed to execute one seeded run, as plain data."""

    index: int
    run_id: str
    family: str
    size: int
    seed: int
    policy: Optional[str]  # None = plain path-vector
    churn_events: int
    churn_start: float
    churn_spacing: float
    churn_restore_delay: Optional[float]
    loss: float
    engine_index: int
    engine: tuple[tuple[str, object], ...]
    until: float
    max_events: int
    soft_state: tuple[tuple[str, float], ...]
    refresh_interval: Optional[float]
    monitors: tuple[str, ...]
    record_stale_routes: bool

    def to_dict(self) -> dict:
        out = asdict(self)
        out["engine"] = dict(self.engine)
        out["soft_state"] = dict(self.soft_state)
        out["monitors"] = list(self.monitors)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunDescriptor":
        data = dict(data)
        data["engine"] = tuple(sorted(dict(data.get("engine", {})).items()))
        data["soft_state"] = tuple(sorted(dict(data.get("soft_state", {})).items()))
        data["monitors"] = tuple(data.get("monitors", ()))
        return cls(**data)

    def engine_config(self) -> EngineConfig:
        """The run's :class:`EngineConfig` (seeded, budgeted, overridden)."""

        config = EngineConfig(
            seed=self.seed,
            max_events=self.max_events,
            refresh_interval=self.refresh_interval,
        )
        for name, value in self.engine:
            setattr(config, name, value)
        return config


class SpecError(ValueError):
    """A campaign spec failed validation."""


@dataclass
class CampaignSpec:
    """A declarative grid of seeded experiment runs."""

    name: str
    # -- grid axes ---------------------------------------------------------
    families: tuple[str, ...] = ("tree",)
    sizes: tuple[int, ...] = (50,)
    policies: tuple[Optional[str], ...] = (NO_POLICY,)
    seeds: tuple[int, ...] = (0,)
    churn_events: tuple[int, ...] = (0,)
    loss: tuple[float, ...] = (0.0,)
    engine: tuple[dict, ...] = field(default_factory=lambda: ({},))
    #: shard-count axis: each value is merged into every engine override as
    #: ``shards=N`` (``shards = [1, 4]`` sweeps single-process vs 4-way
    #: sharded).  The default ``(1,)`` adds nothing, so specs written
    #: before sharding keep their exact run ids and descriptor bytes.
    shards: tuple[int, ...] = (1,)
    # -- shared run parameters --------------------------------------------
    churn_start: float = 1.0
    churn_spacing: float = 0.5
    churn_restore_delay: Optional[float] = 1.0
    until: float = 30.0
    max_events: int = 200_000
    #: predicate → lifetime override applied to the program's materialize
    #: declarations (soft-state dimension of the campaign)
    soft_state: dict = field(default_factory=dict)
    refresh_interval: Optional[float] = None
    monitors: tuple[str, ...] = MONITOR_KINDS
    record_stale_routes: bool = True
    #: attempt static proofs of monitor properties before running (see
    #: ``docs/ANALYSIS.md``): monitors whose properties are proved — and
    #: whose policy algebra discharges its obligations — are skipped at
    #: runtime and recorded as clean, with proof provenance in the ledger
    static_proofs: bool = False
    #: collect per-run observability blocks (metrics + spans, see
    #: ``docs/OBSERVABILITY.md``) into the ledger and a campaign
    #: ``metrics.json``.  Ledger-only: ``results.jsonl`` — and hence every
    #: fingerprint and diff — stays byte-identical to an ``obs = false``
    #: campaign.  A shared parameter, not a grid axis, so run ids and
    #: descriptors are unchanged.
    obs: bool = False

    def __post_init__(self) -> None:
        self.families = tuple(self.families)
        self.sizes = tuple(int(s) for s in self.sizes)
        self.policies = tuple(
            None if p in (None, NO_POLICY) else p for p in self.policies
        )
        self.seeds = tuple(int(s) for s in self.seeds)
        self.churn_events = tuple(int(c) for c in self.churn_events)
        self.loss = tuple(float(value) for value in self.loss)
        self.engine = tuple(dict(entry) for entry in self.engine) or ({},)
        self.shards = tuple(int(s) for s in self.shards) or (1,)
        self.soft_state = {str(k): float(v) for k, v in dict(self.soft_state).items()}
        self.monitors = tuple(self.monitors)
        self.static_proofs = bool(self.static_proofs)
        self.obs = bool(self.obs)
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        for family in self.families:
            if family not in SCENARIO_FAMILIES:
                raise SpecError(
                    f"unknown scenario family {family!r}; "
                    f"expected one of {sorted(SCENARIO_FAMILIES)}"
                )
        for policy in self.policies:
            if policy is not None and policy not in POLICY_KINDS:
                raise SpecError(
                    f"unknown policy {policy!r}; expected one of "
                    f"{(NO_POLICY,) + POLICY_KINDS}"
                )
        for kind in self.monitors:
            if kind not in MONITOR_KINDS:
                raise SpecError(
                    f"unknown monitor {kind!r}; expected one of {MONITOR_KINDS}"
                )
        for entry in self.engine:
            unknown = set(entry) - _ENGINE_FIELDS
            if unknown:
                raise SpecError(
                    f"unknown EngineConfig fields {sorted(unknown)}; "
                    f"expected among {sorted(_ENGINE_FIELDS)}"
                )
        if not (self.families and self.sizes and self.policies and self.seeds):
            raise SpecError("families, sizes, policies, and seeds must be non-empty")
        for shard_count in self.shards:
            if shard_count < 1:
                raise SpecError("shards values must be >= 1")
        for size in self.sizes:
            if size < 1:
                raise SpecError("sizes must be positive")
        for value in self.loss:
            if not 0.0 <= value < 1.0:
                raise SpecError("loss values must be probabilities in [0, 1)")

    # ------------------------------------------------------------------
    @property
    def run_count(self) -> int:
        return (
            len(self.families)
            * len(self.sizes)
            * len(self.policies)
            * len(self.churn_events)
            * len(self.loss)
            * len(self.engine)
            * len(self.shards)
            * len(self.seeds)
        )

    def expand(self) -> list[RunDescriptor]:
        """The spec's deterministic run grid, in stable order.

        Ordering (outermost → innermost): family, size, policy, churn,
        loss, engine entry, seed — so seeds of one cell are adjacent, which
        keeps process-pool chunks cache-friendly (same program/topology
        family per chunk).  Raises :class:`SpecError` when a run of the
        ``disagree`` policy would get a topology with no triangle to embed
        its gadget on (read from each generated topology).
        """

        if "disagree" in self.policies:
            for family in self.families:
                for size in self.sizes:
                    for seed in self.seeds:
                        if first_triangle(SCENARIO_FAMILIES[family](size, seed)) is None:
                            raise SpecError(
                                f"policy 'disagree' embeds its gadget on a triangle, "
                                f"and {family}-{size} (seed {seed}) has none"
                            )
        descriptors: list[RunDescriptor] = []
        soft_state = tuple(sorted(self.soft_state.items()))
        # the default (1,) axis leaves descriptors (and so run ids, ledgers,
        # and resume matching) byte-identical to pre-sharding campaigns; an
        # explicit axis merges ``shards=N`` into each engine override and
        # tags the run id
        legacy_shards = self.shards == (1,)
        index = 0
        for family in self.families:
            for size in self.sizes:
                for policy in self.policies:
                    for churn in self.churn_events:
                        for loss in self.loss:
                            for engine_index, overrides in enumerate(self.engine):
                              for shard_count in self.shards:
                                merged = dict(overrides)
                                shard_tag = ""
                                if not legacy_shards:
                                    merged["shards"] = shard_count
                                    shard_tag = f"-sh{shard_count}"
                                engine = tuple(sorted(merged.items()))
                                for seed in self.seeds:
                                    run_id = (
                                        f"{index:04d}-{family}-{size}"
                                        f"-{policy or NO_POLICY}-c{churn}-l{loss:g}"
                                        f"-e{engine_index}{shard_tag}-s{seed}"
                                    )
                                    descriptors.append(
                                        RunDescriptor(
                                            index=index,
                                            run_id=run_id,
                                            family=family,
                                            size=size,
                                            seed=seed,
                                            policy=policy,
                                            churn_events=churn,
                                            churn_start=self.churn_start,
                                            churn_spacing=self.churn_spacing,
                                            churn_restore_delay=self.churn_restore_delay,
                                            loss=loss,
                                            engine_index=engine_index,
                                            engine=engine,
                                            until=self.until,
                                            max_events=self.max_events,
                                            soft_state=soft_state,
                                            refresh_interval=self.refresh_interval,
                                            monitors=self.monitors,
                                            record_stale_routes=self.record_stale_routes,
                                        )
                                    )
                                    index += 1
        return descriptors

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out = asdict(self)
        out["policies"] = [p or NO_POLICY for p in self.policies]
        out["engine"] = [dict(entry) for entry in self.engine]
        for key in ("families", "sizes", "seeds", "churn_events", "loss", "monitors", "shards"):
            out[key] = list(out[key])
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "CampaignSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(
                f"unknown spec fields {sorted(unknown)}; expected among {sorted(known)}"
            )
        if "name" not in data:
            raise SpecError("campaign spec needs a name")
        return cls(**dict(data))


def _scalars_to_axes(data: dict) -> dict:
    """Allow scalar values for axis fields (a single-point axis)."""

    for key in ("families", "sizes", "policies", "seeds", "churn_events", "loss", "shards"):
        if key in data and not isinstance(data[key], (list, tuple)):
            data[key] = [data[key]]
    if "engine" in data and isinstance(data["engine"], Mapping):
        data["engine"] = [data["engine"]]
    return data


def load_spec(path: str | Path) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file."""

    path = Path(path)
    if not path.exists():
        raise SpecError(f"spec file not found: {path}")
    try:
        if path.suffix == ".toml":
            data = tomllib.loads(path.read_text())
        elif path.suffix == ".json":
            data = json.loads(path.read_text())
        else:
            raise SpecError(
                f"unsupported spec format {path.suffix!r} (use .toml or .json)"
            )
    except (tomllib.TOMLDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"malformed spec {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError("campaign spec must be a table/object")
    data.setdefault("name", path.stem)
    try:
        return CampaignSpec.from_dict(_scalars_to_axes(data))
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid spec {path}: {exc}") from exc


def spec_from_mapping(data: Mapping) -> CampaignSpec:
    """Build a spec from an in-memory mapping (benchmarks, tests)."""

    return CampaignSpec.from_dict(_scalars_to_axes(dict(data)))


def descriptor_ids(descriptors: Sequence[RunDescriptor]) -> list[str]:
    return [d.run_id for d in descriptors]
