"""Shared pytest plumbing: collect acceptance-criterion verdicts and print
one line per criterion at the end of the run, and make hypothesis runs
reproducible when the CI environment variable is set."""
import os

from hypothesis import settings

# derandomized examples give every CI run the same cases; a failure prints
# the blob that replays it with @reproduce_failure
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

_criterion_lines: dict[int, str] = {}


def record_criterion(number: int, description: str, passed: bool) -> None:
    verdict = "PASS" if passed else "FAIL"
    _criterion_lines[number] = f"criterion {number:2d}: {verdict} - {description}"


def pytest_terminal_summary(terminalreporter):
    if not _criterion_lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_criterion_lines):
        terminalreporter.write_line(_criterion_lines[number])
