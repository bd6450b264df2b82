"""Shared pytest plumbing.

The acceptance tests record one line per criterion; the hook below prints
them as a dedicated section of the terminal summary so a plain `pytest -v`
run ends with an at-a-glance pass/fail table.
"""

import json
import struct

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture
def edit_checkpoint_header():
    """Rewrite a checkpoint's JSON header in place with `edit(header)`,
    keeping the magic, the version and the data section."""

    def edit_header(path, edit):
        raw = open(path, "rb").read()
        version, header_len = struct.unpack_from("<IQ", raw, 8)
        header = json.loads(raw[20 : 20 + header_len])
        edit(header)
        body = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(raw[:8] + struct.pack("<IQ", version, len(body)) + body + raw[20 + header_len :])

    return edit_header


@pytest.fixture(scope="session")
def record_criterion():
    def record(number: int, name: str, passed: bool, detail: str):
        verdict = "PASS" if passed else "FAIL"
        ACCEPTANCE_LINES.append(f"criterion {number} ({name}): {verdict} - {detail}")
        return passed

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
