"""SPVP: the Simple Path Vector Protocol simulation over SPP instances.

Griffin & Wilfong's SPVP abstracts BGP dynamics: nodes asynchronously
re-evaluate their best permitted path given the routes their neighbours last
advertised.  Running SPVP over the gadget instances reproduces the paper's
Section 3.2 observations:

* **Good Gadget** converges under every activation schedule;
* **Disagree** has two stable solutions; fair random schedules converge to
  one of them, but the synchronised (simultaneous) schedule oscillates
  forever — the "delayed convergence in the presence of policy conflicts";
* **Bad Gadget** never converges.

The simulator supports random, round-robin, and simultaneous activation
schedules, detects oscillation by state revisit, and reports activation and
message counts for the benchmark harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Literal, Optional

from .spp import EPSILON, NodeId, Path, SPPInstance


Schedule = Literal["random", "round_robin", "simultaneous"]


@dataclass
class SPVPResult:
    """Outcome of one SPVP run."""

    instance: str
    schedule: str
    converged: bool
    oscillated: bool
    activations: int
    messages: int
    final_assignment: dict[NodeId, Path]
    state_revisits: int = 0
    history_length: int = 0

    def summary(self) -> str:
        if self.converged:
            status = f"converged after {self.activations} activations"
        elif self.oscillated:
            status = f"oscillates (state revisited after {self.history_length} steps)"
        else:
            status = "did not converge within budget"
        return f"SPVP[{self.instance}/{self.schedule}]: {status}, {self.messages} messages"


class SPVPSimulator:
    """Simulates SPVP over one SPP instance."""

    def __init__(self, instance: SPPInstance, *, seed: Optional[int] = None) -> None:
        self.instance = instance
        self.seed = seed

    # ------------------------------------------------------------------
    # Core dynamics
    # ------------------------------------------------------------------
    def _initial_assignment(self) -> dict[NodeId, Path]:
        return {node: EPSILON for node in self.instance.permitted}

    def run(
        self,
        *,
        schedule: Schedule = "random",
        max_activations: int = 10_000,
        stability_window: Optional[int] = None,
    ) -> SPVPResult:
        """Run SPVP under the given activation schedule.

        Convergence is declared when every node is playing its best response
        (the assignment is stable).  Oscillation is declared when the global
        state repeats without being stable — with deterministic schedules
        this certifies a livelock; with random schedules it merely witnesses
        a cycle in the state graph.
        """

        rng = random.Random(self.seed)
        assignment = self._initial_assignment()
        nodes = sorted(self.instance.permitted, key=str)
        messages = 0
        activations = 0
        seen_states: set[tuple] = set()
        revisits = 0

        def state_key() -> tuple:
            return tuple(assignment[n] for n in nodes)

        seen_states.add(state_key())
        window = stability_window if stability_window is not None else 2 * len(nodes)
        quiet = 0
        while activations < max_activations:
            if self.instance.is_stable(assignment):
                return SPVPResult(
                    instance=self.instance.name,
                    schedule=schedule,
                    converged=True,
                    oscillated=False,
                    activations=activations,
                    messages=messages,
                    final_assignment=dict(assignment),
                    state_revisits=revisits,
                    history_length=len(seen_states),
                )
            if schedule == "random":
                batch = [rng.choice(nodes)]
            elif schedule == "round_robin":
                batch = [nodes[activations % len(nodes)]]
            else:  # simultaneous
                batch = list(nodes)
            snapshot = dict(assignment) if schedule == "simultaneous" else assignment
            changed_any = False
            for node in batch:
                basis = snapshot if schedule == "simultaneous" else assignment
                best = self.instance.best_consistent_path(node, basis)
                activations += 1
                if assignment[node] != best:
                    assignment[node] = best
                    messages += 1
                    changed_any = True
            key = state_key()
            if key in seen_states and changed_any:
                revisits += 1
                # With a deterministic schedule a revisited non-stable state
                # certifies an oscillation.
                if schedule in ("simultaneous", "round_robin"):
                    return SPVPResult(
                        instance=self.instance.name,
                        schedule=schedule,
                        converged=False,
                        oscillated=True,
                        activations=activations,
                        messages=messages,
                        final_assignment=dict(assignment),
                        state_revisits=revisits,
                        history_length=len(seen_states),
                    )
            seen_states.add(key)
            quiet = quiet + 1 if not changed_any else 0
            if quiet > window and self.instance.is_stable(assignment):
                break
        return SPVPResult(
            instance=self.instance.name,
            schedule=schedule,
            converged=self.instance.is_stable(assignment),
            oscillated=revisits > 0 and not self.instance.is_stable(assignment),
            activations=activations,
            messages=messages,
            final_assignment=dict(assignment),
            state_revisits=revisits,
            history_length=len(seen_states),
        )

    # ------------------------------------------------------------------
    # Aggregate experiments
    # ------------------------------------------------------------------
    def convergence_profile(
        self,
        *,
        runs: int = 20,
        schedule: Schedule = "random",
        max_activations: int = 5_000,
    ) -> dict[str, float]:
        """Statistics over repeated runs with different seeds.

        Returns convergence rate, mean activations to converge (over the
        converging runs), and mean messages — the numbers the E3/E4 benches
        tabulate for conflict-free versus conflicting policies.
        """

        converged = 0
        activation_counts: list[int] = []
        message_counts: list[int] = []
        distinct_outcomes: set[tuple] = set()
        for run in range(runs):
            simulator = SPVPSimulator(self.instance, seed=run)
            result = simulator.run(schedule=schedule, max_activations=max_activations)
            if result.converged:
                converged += 1
                activation_counts.append(result.activations)
                message_counts.append(result.messages)
                distinct_outcomes.add(
                    tuple(sorted(result.final_assignment.items(), key=lambda kv: str(kv[0])))
                )
        return {
            "runs": float(runs),
            "convergence_rate": converged / runs,
            "mean_activations": (
                sum(activation_counts) / len(activation_counts) if activation_counts else float("inf")
            ),
            "mean_messages": (
                sum(message_counts) / len(message_counts) if message_counts else float("inf")
            ),
            "distinct_stable_outcomes": float(len(distinct_outcomes)),
        }
