"""Generating NDlog programs from verified component specifications (arc 3).

Paper Section 3.2.2 gives the translation: an atomic component

.. code-block:: none

    t(I,O): INDUCTIVE bool = CT(I,O)

becomes the NDlog rule

.. code-block:: none

    t_out(O) :- t_in(I), CT(I,O)

and a composite component's sub-components chain through the generated
``*_out`` relations (the Figure 3 example).  This module implements that
translation over :class:`~repro.fvn.components.Component` /
:class:`~repro.fvn.components.CompositeComponent`, including the optional
location-specifier annotation step the paper mentions ("additional predicate
schema information is required as input"), supplied as a mapping from
port attribute name to the attribute that should carry the ``@``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..logic.formulas import And, Atom, Comparison, Exists, Formula, Not, Truth
from ..logic.terms import Var
from ..ndlog.ast import (
    Assignment,
    BodyItem,
    Condition,
    HeadLiteral,
    Literal,
    NDlogError,
    Program,
    Rule,
)
from .components import Component, ComponentError, CompositeComponent


#: Suffixes used for the generated input/output relations.
IN_SUFFIX = "_in"
OUT_SUFFIX = "_out"


@dataclass
class SchemaAnnotation:
    """Location-specifier schema information for the generated program.

    ``locations`` maps a generated predicate name (``t_in``/``t_out``) to the
    0-based index of the attribute acting as the location specifier.  A
    ``default_attribute`` name can be given instead: any predicate whose
    schema contains an attribute of that name is located there.
    """

    locations: dict[str, int] = field(default_factory=dict)
    default_attribute: Optional[str] = None

    def location_for(self, predicate: str, attributes: Sequence[str]) -> Optional[int]:
        if predicate in self.locations:
            return self.locations[predicate]
        if self.default_attribute and self.default_attribute in attributes:
            return list(attributes).index(self.default_attribute)
        return None


def _constraint_to_body_items(formula: Formula) -> list[BodyItem]:
    """Flatten a component constraint into NDlog body items.

    Supported constraint forms: conjunctions of atoms (auxiliary relations),
    comparisons (equalities become assignments when one side is a bare
    variable), and negated atoms.  Anything else is rejected — the same
    syntactic restriction the paper's translation imposes.
    """

    items: list[BodyItem] = []
    stack: list[Formula] = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Truth):
            continue
        if isinstance(f, And):
            stack.extend(reversed(f.parts))
            continue
        if isinstance(f, Exists):
            stack.append(f.body)
            continue
        if isinstance(f, Atom):
            items.append(Literal(f.predicate, tuple(f.args)))
            continue
        if isinstance(f, Not) and isinstance(f.body, Atom):
            items.append(Literal(f.body.predicate, tuple(f.body.args), negated=True))
            continue
        if isinstance(f, Comparison):
            if f.op == "=" and isinstance(f.left, Var):
                items.append(Assignment(f.left, f.right))
            elif f.op == "=" and isinstance(f.right, Var):
                items.append(Assignment(f.right, f.left))
            else:
                items.append(Condition(f.op, f.left, f.right))
            continue
        raise NDlogError(
            f"cannot translate constraint {f} to NDlog (only conjunctions of "
            "atoms, comparisons, and negated atoms are supported)"
        )
    # Keep source order (stack reversal above preserves it for conjunctions).
    return items


def component_to_rules(
    component: Component,
    *,
    schema: Optional[SchemaAnnotation] = None,
    input_predicates: Optional[Mapping[str, str]] = None,
    output_predicates: Optional[Mapping[str, str]] = None,
    rule_prefix: str = "",
) -> list[Rule]:
    """Translate one atomic component into NDlog rules.

    One rule is generated per output port (the paper's generalization to
    components connected to multiple outputs); all input ports appear as
    ``t_in`` predicates in every rule body.  ``input_predicates`` /
    ``output_predicates`` override the default ``<component>_<port><suffix>``
    naming so composites can chain sub-components directly.
    """

    schema = schema or SchemaAnnotation()
    input_predicates = dict(input_predicates or {})
    output_predicates = dict(output_predicates or {})
    rules: list[Rule] = []
    body_literals: list[BodyItem] = []
    for port in component.inputs:
        predicate = input_predicates.get(port.name, f"{component.name}{IN_SUFFIX}_{port.name}")
        location = schema.location_for(predicate, port.attributes)
        body_literals.append(Literal(predicate, port.variables(), location))
    constraint_items = _constraint_to_body_items(component.constraint_formula())
    for index, port in enumerate(component.outputs):
        predicate = output_predicates.get(port.name, f"{component.name}{OUT_SUFFIX}_{port.name}")
        location = schema.location_for(predicate, port.attributes)
        head = HeadLiteral(predicate, port.variables(), location)
        name = f"{rule_prefix}{component.name}_{port.name}" if len(component.outputs) > 1 else f"{rule_prefix}{component.name}"
        rules.append(Rule(name, head, tuple(body_literals + constraint_items)))
    return rules


def composite_to_program(
    composite: CompositeComponent,
    *,
    schema: Optional[SchemaAnnotation] = None,
    program_name: Optional[str] = None,
) -> Program:
    """Translate a composite component into an executable NDlog program.

    Internal wires chain through the producing component's ``*_out``
    relation: the consumer's body literal for a wired input port *is* the
    producer's output relation (exactly the Figure 3 translation, where
    ``t3_out(O3) :- t1_out(O1), t2_out(O2), C3``).  External inputs remain
    ``<composite>_in_<port>`` relations the environment populates.
    """

    schema = schema or SchemaAnnotation()
    program = Program(program_name or f"{composite.name}_ndlog")
    wire_by_dst = {(w.dst_component, w.dst_port): w for w in composite.wires}

    for component in composite.topological_order():
        input_predicates: dict[str, str] = {}
        for port in component.inputs:
            wire = wire_by_dst.get((component.name, port.name))
            if wire is not None:
                input_predicates[port.name] = f"{wire.src_component}{OUT_SUFFIX}_{wire.src_port}"
            else:
                input_predicates[port.name] = f"{composite.name}{IN_SUFFIX}_{port.name}"
        output_predicates = {
            port.name: f"{component.name}{OUT_SUFFIX}_{port.name}" for port in component.outputs
        }
        for rule in component_to_rules(
            component,
            schema=schema,
            input_predicates=input_predicates,
            output_predicates=output_predicates,
        ):
            program.add_rule(rule)
    return program


@dataclass
class TranslationEquivalence:
    """Outcome of differentially testing a composite against its NDlog program.

    Used by tests and by experiment F2/F3: feed the same external inputs to
    the component graph (direct ``run``) and to the generated NDlog program
    (via the centralized evaluator), and compare outputs.
    """

    matches: bool
    component_outputs: dict[str, tuple]
    ndlog_outputs: dict[str, set[tuple]]
    detail: str = ""


def check_translation_equivalence(
    composite: CompositeComponent,
    external_inputs: Mapping[str, tuple],
    *,
    schema: Optional[SchemaAnnotation] = None,
    functions: Optional[Mapping[str, object]] = None,
) -> TranslationEquivalence:
    """Differentially test the composite's direct execution against the
    evaluation of its generated NDlog program on the same inputs.

    ``functions`` supplies interpretations for any domain-specific functions
    the component constraints call (e.g. policy lookups).
    """

    from ..ndlog.functions import builtin_registry  # local import to avoid cycles
    from ..ndlog.seminaive import evaluate

    registry = builtin_registry(dict(functions) if functions else None)
    program = composite_to_program(composite, schema=schema)
    # Build the NDlog input facts from the external inputs.
    facts: list[tuple[str, tuple]] = []
    ext_in = composite.external_inputs()
    for key, value in external_inputs.items():
        if "." in key:
            comp_name, port_name = key.split(".", 1)
        else:
            matches = [(c, p) for c, p in ext_in if p.name == key]
            if len(matches) != 1:
                raise ComponentError(f"ambiguous or unknown external input {key!r}")
            comp_name, port_name = matches[0][0], matches[0][1].name
        facts.append((f"{composite.name}{IN_SUFFIX}_{port_name}", tuple(value)))
    db = evaluate(program, facts, registry=registry)

    component_outputs = composite.run(**{k: tuple(v) for k, v in external_inputs.items()})
    ndlog_outputs: dict[str, set[tuple]] = {}
    matches = True
    details: list[str] = []
    for out_key, value in component_outputs.items():
        comp_name, port_name = out_key.split(".", 1)
        predicate = f"{comp_name}{OUT_SUFFIX}_{port_name}"
        rows = set(db.rows(predicate))
        ndlog_outputs[out_key] = rows
        if tuple(value) not in rows:
            matches = False
            details.append(f"{out_key}: component produced {value!r}, NDlog produced {rows!r}")
    return TranslationEquivalence(
        matches=matches,
        component_outputs=component_outputs,
        ndlog_outputs=ndlog_outputs,
        detail="; ".join(details),
    )
