"""Golden-file corpus: pinned parse results and emitted codegen source.

``tests/ndlog/corpus/*.ndl`` holds the bundled paper programs (path vector,
distance vector, link state, heartbeat, the generated policy path vector)
plus edge-case texts (negation, aggregates, duplicate variables, soft
state, a dead plan).  For each text the suite pins

* ``<name>.parse.txt`` — a deterministic dump of the parsed AST, and
* ``<name>.codegen.txt`` — the specialized Python source the code
  generator emits (:func:`repro.ndlog.codegen.emit_program_source`),
  dead plans included as their no-op body functions,

so any change to parser output or generated code shows up as a reviewable
diff.  Regenerate with ``pytest --update-goldens tests/ndlog`` and review
the diff before committing.
"""

import pathlib

import pytest

from repro.ndlog.codegen import emit_program_source
from repro.ndlog.functions import builtin_registry
from repro.ndlog.parser import parse_program
from repro.ndlog.seminaive import evaluate

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.ndl"))


def parse_dump(program) -> str:
    """A deterministic, line-per-construct dump of the parsed program."""

    lines = [f"program {program.name}"]
    for decl in program.materialized.values():
        lines.append(repr(decl))
    for rule in program.rules:
        lines.append(repr(rule))
    return "\n".join(lines) + "\n"


def check_golden(path: pathlib.Path, actual: str, update: bool) -> None:
    if update:
        path.write_text(actual)
        return
    assert path.exists(), (
        f"missing golden file {path.name}; generate it with "
        f"`pytest --update-goldens {path.parent.parent}`"
    )
    assert actual == path.read_text(), (
        f"{path.name} is stale; regenerate with --update-goldens and review the diff"
    )


def test_corpus_is_nonempty():
    assert len(CORPUS) >= 7


@pytest.mark.parametrize("ndl", CORPUS, ids=lambda p: p.stem)
def test_parse_golden(ndl, update_goldens):
    program = parse_program(ndl.read_text(), ndl.stem)
    check_golden(
        ndl.with_suffix(".parse.txt"), parse_dump(program), update_goldens
    )


@pytest.mark.parametrize("ndl", CORPUS, ids=lambda p: p.stem)
def test_codegen_source_golden(ndl, update_goldens):
    program = parse_program(ndl.read_text(), ndl.stem)
    source = emit_program_source(program, builtin_registry())
    check_golden(ndl.with_suffix(".codegen.txt"), source, update_goldens)


def test_fallback_entry_actually_falls_back():
    """The corpus keeps one dead plan so the generator's no-op lowering of
    it stays covered by the goldens."""

    program = parse_program((CORPUS_DIR / "fallback.ndl").read_text(), "fallback")
    source = emit_program_source(program, builtin_registry())
    assert "# dead plan:" in source
    # the dead rule loads and evaluates — to nothing
    db = evaluate(program, [("e", (1, 2, 3))])
    assert db.rows("p") == [(1, 2)]
    assert db.rows("q") == []
