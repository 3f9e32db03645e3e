"""Component-based network models (paper Section 3.2).

A network protocol is decomposed into *components*, each a relation between
its input tuples and output tuples expressed by constraints — Griffin's view
of BGP as a series of route transformations (Figure 2), or the generic
compositional component ``tc`` of Figure 3.  In FVN these models are written
once and then

* formalized as logical specifications (inductive definitions) for
  verification, and
* translated into NDlog rules for execution
  (:mod:`repro.fvn.logic_to_ndlog`).

A component's constraint can be given two ways, which the two translations
consume respectively:

* ``constraints`` — declarative :class:`ComponentConstraint` records
  (equalities, comparisons, predicate memberships) over the named ports, or
* ``transform`` — a Python function from input values to output values,
  used when simulating the component graph directly and for differential
  testing of the generated NDlog program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from ..logic.formulas import Atom, Formula, conj
from ..logic.inductive import Clause, InductiveDefinition
from ..logic.theory import Theory
from ..terms import Var


class ComponentError(Exception):
    """Raised for malformed component models."""


@dataclass(frozen=True)
class Port:
    """A named port with a tuple of attribute names."""

    name: str
    attributes: tuple[str, ...]

    def variables(self, prefix: str = "") -> tuple[Var, ...]:
        return tuple(Var(prefix + a) for a in self.attributes)

    @property
    def arity(self) -> int:
        return len(self.attributes)


@dataclass(frozen=True)
class ComponentConstraint:
    """One declarative constraint ``CT(I, O)`` of a component.

    The formula is expressed over variables named after port attributes.
    """

    formula: Formula
    description: str = ""

    def __str__(self) -> str:
        return self.description or str(self.formula)


@dataclass
class Component:
    """An atomic component ``t(I, O): INDUCTIVE bool = CT(I, O)``."""

    name: str
    inputs: tuple[Port, ...]
    outputs: tuple[Port, ...]
    constraints: tuple[ComponentConstraint, ...] = ()
    transform: Optional[Callable[..., Mapping[str, tuple] | tuple | None]] = None
    doc: str = ""

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        self.outputs = tuple(self.outputs)
        self.constraints = tuple(self.constraints)
        seen: set[str] = set()
        for port in self.inputs + self.outputs:
            if port.name in seen:
                raise ComponentError(f"component {self.name}: duplicate port {port.name!r}")
            seen.add(port.name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.inputs)

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.outputs)

    def port(self, name: str) -> Port:
        for p in self.inputs + self.outputs:
            if p.name == name:
                return p
        raise ComponentError(f"component {self.name}: no port {name!r}")

    def all_variables(self) -> tuple[Var, ...]:
        out: list[Var] = []
        for port in self.inputs + self.outputs:
            for v in port.variables():
                if v not in out:
                    out.append(v)
        return tuple(out)

    def constraint_formula(self) -> Formula:
        return conj(*(c.formula for c in self.constraints))

    # ------------------------------------------------------------------
    # Logical specification (PVS-style inductive definition)
    # ------------------------------------------------------------------
    def inductive_definition(self) -> InductiveDefinition:
        """``t(I, O): INDUCTIVE bool = CT(I, O)`` as an inductive definition.

        Parameters are the concatenated input then output attributes;
        variables mentioned only in constraints become clause existentials.
        """

        params = self.all_variables()
        body = self.constraint_formula()
        extra = tuple(v for v in sorted(body.free_vars(), key=lambda x: x.name) if v not in params)
        return InductiveDefinition(
            predicate=self.name,
            params=params,
            clauses=(Clause(extra, body),),
            doc=self.doc,
        )

    # ------------------------------------------------------------------
    # Direct execution
    # ------------------------------------------------------------------
    def run(self, **port_values: tuple) -> dict[str, tuple]:
        """Run the component's ``transform`` on concrete input tuples.

        ``port_values`` maps input port names to value tuples; the result
        maps output port names to value tuples.  Components without a
        ``transform`` cannot be run directly.
        """

        if self.transform is None:
            raise ComponentError(f"component {self.name} has no executable transform")
        missing = [p for p in self.input_names if p not in port_values]
        if missing:
            raise ComponentError(f"component {self.name}: missing inputs {missing}")
        result = self.transform(**{p: port_values[p] for p in self.input_names})
        if result is None:
            return {}
        if isinstance(result, Mapping):
            return dict(result)
        if len(self.outputs) != 1:
            raise ComponentError(
                f"component {self.name}: transform returned a bare tuple but the "
                f"component has {len(self.outputs)} outputs"
            )
        return {self.outputs[0].name: tuple(result)}


@dataclass(frozen=True)
class Wire:
    """A connection from one component's output port to another's input port."""

    src_component: str
    src_port: str
    dst_component: str
    dst_port: str


@dataclass
class CompositeComponent:
    """A component assembled from sub-components (Figure 3's ``tc``).

    External inputs/outputs are ports of sub-components that are not wired
    internally; they become the composite's own ports.
    """

    name: str
    components: dict[str, Component] = field(default_factory=dict)
    wires: list[Wire] = field(default_factory=list)
    doc: str = ""

    def add(self, component: Component) -> Component:
        if component.name in self.components:
            raise ComponentError(f"duplicate component {component.name!r}")
        self.components[component.name] = component
        return component

    def connect(self, src: str, src_port: str, dst: str, dst_port: str) -> Wire:
        for name, port_name, direction in ((src, src_port, "outputs"), (dst, dst_port, "inputs")):
            component = self.components.get(name)
            if component is None:
                raise ComponentError(f"unknown component {name!r}")
            names = component.output_names if direction == "outputs" else component.input_names
            if port_name not in names:
                raise ComponentError(
                    f"component {name!r} has no {direction[:-1]} port {port_name!r}"
                )
        wire = Wire(src, src_port, dst, dst_port)
        self.wires.append(wire)
        return wire

    # ------------------------------------------------------------------
    # External interface
    # ------------------------------------------------------------------
    def _wired_inputs(self) -> set[tuple[str, str]]:
        return {(w.dst_component, w.dst_port) for w in self.wires}

    def _wired_outputs(self) -> set[tuple[str, str]]:
        return {(w.src_component, w.src_port) for w in self.wires}

    def external_inputs(self) -> list[tuple[str, Port]]:
        wired = self._wired_inputs()
        out = []
        for name, component in self.components.items():
            for port in component.inputs:
                if (name, port.name) not in wired:
                    out.append((name, port))
        return out

    def external_outputs(self) -> list[tuple[str, Port]]:
        wired = self._wired_outputs()
        out = []
        for name, component in self.components.items():
            for port in component.outputs:
                if (name, port.name) not in wired:
                    out.append((name, port))
        return out

    def topological_order(self) -> list[Component]:
        """Sub-components ordered so producers precede consumers."""

        depends: dict[str, set[str]] = {name: set() for name in self.components}
        for wire in self.wires:
            depends[wire.dst_component].add(wire.src_component)
        ordered: list[str] = []
        remaining = dict(depends)
        while remaining:
            ready = [n for n, deps in remaining.items() if deps <= set(ordered)]
            if not ready:
                raise ComponentError(f"composite {self.name}: cyclic wiring")
            for n in sorted(ready):
                ordered.append(n)
                del remaining[n]
        return [self.components[n] for n in ordered]

    # ------------------------------------------------------------------
    # Logical specification
    # ------------------------------------------------------------------
    def theory(self) -> Theory:
        """A theory holding one inductive definition per sub-component plus
        the composite's own definition (existentially hiding internal wires)."""

        thy = Theory(self.name, doc=self.doc)
        for component in self.components.values():
            thy.define(component.inductive_definition())
        thy.define(self.inductive_definition())
        return thy

    def inductive_definition(self) -> InductiveDefinition:
        """The composite as ``tc(ext_inputs, ext_outputs) = EXISTS internals: ...``."""

        # Each internal wire's attributes get one shared variable set named
        # after the producing component/port.
        rename: dict[tuple[str, str], str] = {}
        for wire in self.wires:
            shared = f"{wire.src_component}_{wire.src_port}"
            rename[(wire.src_component, wire.src_port)] = shared
            rename[(wire.dst_component, wire.dst_port)] = shared

        def port_vars(component: Component, port: Port) -> tuple[Var, ...]:
            prefix = rename.get((component.name, port.name), f"{component.name}_{port.name}")
            return tuple(Var(f"{prefix}_{a}") for a in port.attributes)

        atoms: list[Formula] = []
        for component in self.components.values():
            args: list[Var] = []
            for port in component.inputs + component.outputs:
                args.extend(port_vars(component, port))
            atoms.append(Atom(component.name, tuple(args)))
        body = conj(*atoms)

        external_vars: list[Var] = []
        for name, port in self.external_inputs() + self.external_outputs():
            external_vars.extend(port_vars(self.components[name], port))
        internal_vars = tuple(
            v for v in sorted(body.free_vars(), key=lambda x: x.name) if v not in external_vars
        )
        return InductiveDefinition(
            predicate=self.name,
            params=tuple(external_vars),
            clauses=(Clause(internal_vars, body),),
            doc=self.doc,
        )

    # ------------------------------------------------------------------
    # Direct execution
    # ------------------------------------------------------------------
    def run(self, **external_inputs: tuple) -> dict[str, tuple]:
        """Execute the component graph on concrete external input tuples.

        ``external_inputs`` maps ``"component.port"`` (or bare port name when
        unambiguous) to tuples.  Returns the external outputs keyed the same
        way.
        """

        values: dict[tuple[str, str], tuple] = {}
        ext_in = self.external_inputs()
        for key, value in external_inputs.items():
            if "." in key:
                comp_name, port_name = key.split(".", 1)
            else:
                matches = [(c, p) for c, p in ext_in if p.name == key]
                if len(matches) != 1:
                    raise ComponentError(f"ambiguous or unknown external input {key!r}")
                comp_name, port_name = matches[0][0], matches[0][1].name
            values[(comp_name, port_name)] = tuple(value)

        wire_by_dst = {(w.dst_component, w.dst_port): w for w in self.wires}
        for component in self.topological_order():
            kwargs: dict[str, tuple] = {}
            starved = False
            for port in component.inputs:
                key = (component.name, port.name)
                if key in values:
                    kwargs[port.name] = values[key]
                elif key in wire_by_dst:
                    wire = wire_by_dst[key]
                    src_key = (wire.src_component, wire.src_port)
                    if src_key not in values:
                        # the upstream component filtered the tuple out (e.g. an
                        # export policy denied the route): nothing flows further
                        starved = True
                        break
                    kwargs[port.name] = values[src_key]
                else:
                    raise ComponentError(
                        f"component {component.name}: unbound input port {port.name!r}"
                    )
            if starved:
                continue
            outputs = component.run(**kwargs)
            for port_name, value in outputs.items():
                values[(component.name, port_name)] = tuple(value)

        result: dict[str, tuple] = {}
        for comp_name, port in self.external_outputs():
            key = (comp_name, port.name)
            if key in values:
                result[f"{comp_name}.{port.name}"] = values[key]
        return result
