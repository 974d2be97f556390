"""Puts src/ on the import path of the CLI subprocesses that tests start,
and prints one verdict line per acceptance criterion after the run."""

import os
from pathlib import Path


def pytest_configure(config):
    # pyproject's ``pythonpath`` puts src/ on this process's import path;
    # a test that runs ``python -m dtry`` in a subprocess needs it there too.
    src = str(Path(__file__).resolve().parent.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    config.addinivalue_line(
        "markers",
        "criterion(num, label): acceptance criterion identity, one summary line each",
    )


def pytest_collection_modifyitems(config, items):
    mapping = {}
    for item in items:
        mark = item.get_closest_marker("criterion")
        if mark is not None:
            mapping[item.nodeid] = mark.args
    config._criterion_map = mapping


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mapping = getattr(config, "_criterion_map", {})
    if not mapping:
        return
    verdict = {}
    for reports in terminalreporter.stats.values():
        for report in reports:
            nodeid = getattr(report, "nodeid", None)
            if nodeid not in mapping:
                continue
            if getattr(report, "failed", False) or getattr(report, "skipped", False):
                verdict[nodeid] = "FAIL"
            else:
                verdict.setdefault(nodeid, "PASS")
    terminalreporter.section("acceptance criteria")
    for nodeid, (num, label) in sorted(mapping.items(), key=lambda kv: kv[1][0]):
        terminalreporter.write_line(
            f"acceptance {num:02d} {label}: {verdict.get(nodeid, 'FAIL')}"
        )
