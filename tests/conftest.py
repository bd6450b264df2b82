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
    keeping the magic and the data section, and the preamble's version
    unless `version` replaces it."""

    def edit_header(path, edit, version=None):
        raw = open(path, "rb").read()
        old_version, header_len = struct.unpack_from("<IQ", raw, 8)
        header = json.loads(raw[20 : 20 + header_len])
        edit(header)
        body = json.dumps(header, sort_keys=True).encode()
        preamble = struct.pack("<IQ", old_version if version is None else version, len(body))
        with open(path, "wb") as fh:
            fh.write(raw[:8] + preamble + body + raw[20 + header_len :])

    return edit_header


@pytest.fixture
def full_disk(monkeypatch):
    """`full_disk(module)` makes every file that `module` opens fail each
    write after its first, as a full disk would; `monkeypatch.undo()` ends it."""

    class FailingFile:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.writes += 1
            if self.writes > 1:
                raise OSError("no space left on device")
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    def install(module):
        real_open = open
        monkeypatch.setattr(module, "open", lambda *a, **kw: FailingFile(real_open(*a, **kw)), raising=False)

    return install


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
