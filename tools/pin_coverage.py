"""List the `src/sermt` statements that no pinned run executes.

    python3 tools/pin_coverage.py [CASE ...]

Runs each named case of `tests/test_digests.py` (every case by default)
with the defense on and off, as its pin does, under `sys.settrace`, and
takes each trace's digest, and prints every statement in a `src/sermt`
function body that none of those runs executed, one per line as
`module:line  function  statement`, then a count. Only the standard
library is used.

A simple statement counts as run when a line event lands on any of its
lines; a compound one (`if`, `for`, `try`, ...) when one lands on its
header or any statement inside it ran. A docstring is not a statement.
The exit code is 1 if a run does not give its pinned digest, else 0.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sermt"
COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try,
            ast.Match) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists nested directly in a compound statement."""
    if isinstance(stmt, ast.Match):
        return [case.body for case in stmt.cases]
    out = [getattr(stmt, name) for name in ("body", "orelse", "finalbody")
           if getattr(stmt, name, None)]
    return out + [handler.body for handler in getattr(stmt, "handlers", ())]


def function_statements(tree: ast.Module) -> list[tuple[str, ast.stmt, list[ast.stmt]]]:
    """(qualified function name, statement, the statements nested in it if
    it is compound) for every statement of every function body in `tree`,
    methods and nested functions included.  Statements that compile to
    no code (`global`, `nonlocal`, a bare constant) are left out."""
    out = []

    def qualified(prefix, name):
        return f"{prefix}.{name}" if prefix else name

    def scope(body, prefix):            # a module's or a class's statements
        for node in body:
            if isinstance(node, FUNCTIONS):
                function(node, prefix)
            elif isinstance(node, ast.ClassDef):
                scope(node.body, qualified(prefix, node.name))
            elif isinstance(node, COMPOUND):
                for block in blocks(node):
                    scope(block, prefix)

    def function(node, prefix):
        name = qualified(prefix, node.name)
        statements(node.body[1:] if is_docstring(node.body[0]) else node.body, name)

    def statements(body, name):
        for stmt in body:
            if isinstance(stmt, (ast.Global, ast.Nonlocal)) or (
                    isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)):
                continue
            nested = [s for block in blocks(stmt) for s in block] \
                if isinstance(stmt, COMPOUND) else []
            out.append((name, stmt, nested))
            if isinstance(stmt, FUNCTIONS):
                function(stmt, name)
            elif isinstance(stmt, ast.ClassDef):
                scope(stmt.body, qualified(name, stmt.name))
            else:
                statements(nested, name)

    scope(tree.body, "")
    return out


def unexecuted(found, hit: set[int]) -> list[tuple[str, ast.stmt]]:
    """The statements of `found` (as `function_statements` gives them)
    that ran on no line in `hit`, in line order."""
    index = {id(stmt): nested for _name, stmt, nested in found}
    ran: dict[int, bool] = {}

    def runs(stmt, nested):
        if id(stmt) not in ran:
            if isinstance(stmt, COMPOUND):
                first = min((s.lineno for s in nested), default=stmt.end_lineno + 1)
                header = range(stmt.lineno, max(first, stmt.lineno + 1))
                ran[id(stmt)] = any(line in hit for line in header) or any(
                    runs(s, index[id(s)]) for s in nested)
            else:
                ran[id(stmt)] = any(line in hit
                                    for line in range(stmt.lineno, stmt.end_lineno + 1))
        return ran[id(stmt)]

    return sorted(((name, stmt) for name, stmt, nested in found if not runs(stmt, nested)),
                  key=lambda item: item[1].lineno)


def trace_pins(cases: list[str]) -> tuple[dict[str, set[int]], list[str]]:
    """Run each case with the defense on and off; the lines of each
    `src/sermt` file that raised a line event, and a message for each run
    whose digest is not its pin.  Tracing starts before
    `tests/test_digests.py` is imported, so what its module level runs
    (building `CASES`) and each case's config load are seen too."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    moved = []
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.settrace(global_)
    try:
        import test_digests
        from sermt.scenario import run_scenario

        for case in cases or sorted(test_digests.CASES):
            for defense, pinned in ((True, test_digests.CASES[case][3]),
                                    (False, test_digests.CASES[case][4])):
                digest = run_scenario(test_digests.case_config(case, defense)).trace.digest()
                if digest != pinned:
                    moved.append(f"{case} defense={defense}: digest {digest}, pinned {pinned}")
    finally:
        sys.settrace(None)
    return hits, moved


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cases", nargs="*", help="cases of tests/test_digests.py (default: all)")
    args = parser.parse_args(argv)
    hits, moved = trace_pins(args.cases)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        found = function_statements(ast.parse(source))
        total += len(found)
        for name, stmt in unexecuted(found, hits.get(str(path), set())):
            missed += 1
            print(f"{path.name}:{stmt.lineno}  {name}  {lines[stmt.lineno - 1].strip()}")
    print(f"{missed} of {total} function-body statements in src/sermt never ran")
    for message in moved:
        print(message, file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
