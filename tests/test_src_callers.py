"""Every top-level function and class in ringlab has a caller outside the tests.

A definition counts as called when its name appears in another top-level
statement of ``src/ringlab`` or ``scripts`` (a call, an annotation, an
attribute), when ``ringlab.__all__`` exports it, or when
``perfbench/spans.py`` traces it. What only the tests call belongs in the
tests (``tests/oracles.py``). The files are parsed, not imported.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ringlab"

# definitions still in src that only the tests call; this set may only shrink
TEST_ONLY: set[tuple[str, str]] = set()


def _assigned(path: Path, name: str):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {path}")


def uncalled_definitions() -> set[tuple[str, str]]:
    defs = set()
    users = defaultdict(set)  # name -> (file stem, the top-level statement's def name or None)
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", None)  # defs and classes have one
            if path.parent == SRC and owner is not None:
                defs.add((path.stem, owner))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    users[sub.id].add((path.stem, owner))
                elif isinstance(sub, ast.Attribute):
                    users[sub.attr].add((path.stem, owner))
    kept = set(_assigned(SRC / "__init__.py", "__all__"))
    kept |= {attr for _, attr, _ in _assigned(ROOT / "perfbench" / "spans.py", "TARGETS")}
    # a name used only inside its own definition (recursion) has no caller
    return {d for d in defs if d[1] not in kept and not users[d[1]] - {d}}


def test_every_definition_has_a_caller_outside_the_tests():
    assert uncalled_definitions() - TEST_ONLY == set(), "move these to tests/oracles.py or delete them"


def test_every_test_only_entry_is_still_an_uncalled_definition():
    assert TEST_ONLY - uncalled_definitions() == set()
