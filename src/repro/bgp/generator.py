"""Generating executable NDlog from the verified BGP specification (§3.2.2).

:func:`bgp_component_program` is the direct component translation of
Figure 2 via :func:`repro.fvn.logic_to_ndlog.composite_to_program`, used to
demonstrate arc 3 on the conceptual model itself (experiment F2).  The
policy path-vector program the engine runs lives on the execution side, in
:mod:`repro.protocols.policy`.

The generated source is plain NDlog text so it can be shown, parsed, stored,
verified (arc 4), and executed (arc 7) exactly like a hand-written program.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..ndlog.ast import Program

# The benchmark (``bench/``) imports the policy program from this module, so
# its two names stay importable here; their home is repro.protocols.policy.
from ..protocols.policy import (  # noqa: F401
    PolicyTable,
    policy_path_vector_program,
    policy_path_vector_source,
)

if TYPE_CHECKING:
    from ..fvn.logic_to_ndlog import SchemaAnnotation


def bgp_component_program(
    policies: Optional[PolicyTable] = None,
    *,
    schema: Optional[SchemaAnnotation] = None,
) -> Program:
    """The NDlog program generated directly from the Figure 2 component model.

    The location annotation places every relation at the receiving AS ``U``
    (attribute ``U`` of each port), matching the paper's remark that schema
    information drives the location-specifier assignment.
    """

    # the component model and the arc-3 translation pull in the logic
    # substrate, which the policy program the engine runs never needs
    from ..fvn.logic_to_ndlog import SchemaAnnotation, composite_to_program
    from .model import bgp_model

    policies = policies or PolicyTable()
    composite = bgp_model(policies)
    if schema is None:
        schema = SchemaAnnotation(default_attribute=None)
    return composite_to_program(composite, schema=schema, program_name="bgp_components")
