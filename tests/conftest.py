import ast
import io
import pathlib
import time
import tokenize

try:
    from hypothesis import settings
except ImportError:  # tests/test_properties.py skips itself
    pass
else:
    # deterministic and cheap: the same examples on every run, no example
    # database, and few enough of them that all property tests take under 3 s
    settings.register_profile(
        "tier1", derandomize=True, database=None, max_examples=40, deadline=None
    )
    settings.load_profile("tier1")

SESSION_START = [None]
SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "newton_condg"
# tokens that make no line of code on their own
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}

CRITERIA = {
    "test_criterion_1": "1 benchmark iteration budgets (FD, direct, theta=1e-5)",
    "test_criterion_2": "2 Schubert method, refresh period 5",
    "test_criterion_3": "3 radius closed forms vs bisection oracle + pinned values",
    "test_criterion_4": "4 CondG approximate-projection bound on random boxes",
    "test_criterion_5": "5 quadratic convergence on synthetic_quadratic",
    "test_criterion_6": "6 majorant envelope e_k <= t_k",
    "test_criterion_7": "7 invariant suites",
}


def code_lines(source):
    """The lines of source that hold code: those a token other than layout
    or a comment touches, less the module, class and function docstrings
    that ast finds (the size metric of the design aims: no blanks, comments
    or docstrings)."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node) is not None
        ):
            first = node.body[0]
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def pytest_sessionstart(session):
    SESSION_START[0] = time.perf_counter()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::" not in nodeid:
                continue
            base = nodeid.split("::")[-1].split("[")[0]
            for key in CRITERIA:
                if base.startswith(key):
                    ok = outcomes.get(key, True) and status == "passed"
                    outcomes[key] = ok
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for key, label in CRITERIA.items():
        if key in outcomes:
            verdict = "PASS" if outcomes[key] else "FAIL"
            terminalreporter.write_line(f"{verdict}  criterion {label}")
    elapsed = time.perf_counter() - SESSION_START[0]
    verdict = "PASS" if elapsed < 300.0 else "FAIL"
    terminalreporter.write_line(
        f"{verdict}  test-suite runtime {elapsed:.1f}s (budget 300s)"
    )
    # reported, never gated
    count = sum(code_lines(path.read_text()) for path in SOURCE.glob("*.py"))
    terminalreporter.write_line(
        f"INFO  src/ code lines {count} (tokenizer count without blanks, comments or docstrings)"
    )
