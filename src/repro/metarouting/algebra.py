"""Abstract routing algebras (the metarouting meta-model, paper Section 3.3).

A routing algebra is the tuple ``A = (Σ, ⪯, L, ⊕, O, φ)``:

* ``Σ`` — path *signatures* (weights), totally preordered by the preference
  relation ``⪯`` (smaller-or-equal means *at least as preferred*);
* ``L`` — link labels (possibly encoding policy);
* ``⊕ : L × Σ → Σ`` — label application, extending a path by one link;
* ``O ⊆ Σ`` — origination signatures (initial routes);
* ``φ ∈ Σ`` — the prohibited signature (least preferred, absorbing).

Concrete algebras subclass or instantiate :class:`RoutingAlgebra` with a
finite (or finitely sampled) carrier so that the metarouting axioms can be
checked exhaustively — the analogue of PVS discharging the instantiation
obligations of the abstract ``routeAlgebra`` theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence


Signature = Hashable
Label = Hashable


@dataclass
class RoutingAlgebra:
    """A concrete routing algebra.

    ``prefer(a, b)`` returns ``True`` when ``a ⪯ b`` (``a`` is at least as
    preferred as ``b``).  ``rank`` optionally maps a signature to a sortable
    key realizing the preference order; when provided it is used for route
    selection and to cross-check ``prefer``.
    """

    name: str
    signatures: tuple[Signature, ...]
    labels: tuple[Label, ...]
    apply_label: Callable[[Label, Signature], Signature]
    prefer: Callable[[Signature, Signature], bool]
    prohibited: Signature
    originations: tuple[Signature, ...] = ()
    rank: Optional[Callable[[Signature], object]] = None
    doc: str = ""

    def __post_init__(self) -> None:
        self.signatures = tuple(dict.fromkeys(self.signatures))
        self.labels = tuple(dict.fromkeys(self.labels))
        if self.prohibited not in self.signatures:
            self.signatures = self.signatures + (self.prohibited,)
        if not self.originations:
            self.originations = tuple(
                s for s in self.signatures if s != self.prohibited
            )[:1]

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def apply(self, label: Label, signature: Signature) -> Signature:
        """``label ⊕ signature``."""

        return self.apply_label(label, signature)

    def strictly_preferred(self, a: Signature, b: Signature) -> bool:
        return self.prefer(a, b) and not self.prefer(b, a)

    def equivalent(self, a: Signature, b: Signature) -> bool:
        return self.prefer(a, b) and self.prefer(b, a)

    def best(self, candidates: Iterable[Signature]) -> Signature:
        """The most preferred of ``candidates`` (``φ`` when empty)."""

        best: Optional[Signature] = None
        for c in candidates:
            if best is None or self.strictly_preferred(c, best):
                best = c
        return self.prohibited if best is None else best

    def is_prohibited(self, signature: Signature) -> bool:
        return signature == self.prohibited

    # ------------------------------------------------------------------
    # Introspection used by axiom checks and composition
    # ------------------------------------------------------------------
    def usable_signatures(self) -> tuple[Signature, ...]:
        return tuple(s for s in self.signatures if s != self.prohibited)

    def sample(self, limit: int = 64) -> tuple[Signature, ...]:
        """A bounded sample of signatures for exhaustive-ish checking.

        When the carrier is larger than ``limit`` the sample is spread evenly
        across it (rather than taking a prefix) so that qualitatively
        different regions — e.g. every local-preference class of a lexical
        product — are represented; the prohibited signature is always
        included.
        """

        if len(self.signatures) <= limit:
            return self.signatures
        step = len(self.signatures) / limit
        picked = [self.signatures[int(i * step)] for i in range(limit)]
        if self.prohibited not in picked:
            picked[-1] = self.prohibited
        return tuple(dict.fromkeys(picked))

    def check_total_order(self) -> Optional[tuple[Signature, Signature]]:
        """Verify ``⪯`` is total over the carrier; return a counterexample pair
        (neither ``a ⪯ b`` nor ``b ⪯ a``) or ``None``."""

        sigs = self.sample()
        for a in sigs:
            for b in sigs:
                if not self.prefer(a, b) and not self.prefer(b, a):
                    return (a, b)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoutingAlgebra({self.name!r}, |Σ|={len(self.signatures)}, "
            f"|L|={len(self.labels)})"
        )


def algebra_from_rank(
    name: str,
    signatures: Sequence[Signature],
    labels: Sequence[Label],
    apply_label: Callable[[Label, Signature], Signature],
    rank: Callable[[Signature], object],
    prohibited: Signature,
    originations: Sequence[Signature] = (),
    doc: str = "",
) -> RoutingAlgebra:
    """Build an algebra whose preference relation is induced by a rank function
    (smaller rank = more preferred), the common case for numeric metrics."""

    return RoutingAlgebra(
        name=name,
        signatures=tuple(signatures),
        labels=tuple(labels),
        apply_label=apply_label,
        prefer=lambda a, b: rank(a) <= rank(b),
        prohibited=prohibited,
        originations=tuple(originations),
        rank=rank,
        doc=doc,
    )
