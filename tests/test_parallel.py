import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gair
from gair import parallel
from gair.tensor import Tensor, backward, enable_grad, grad_enabled


def numpy_blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


needs_openblas = pytest.mark.skipif(not parallel._BLAS, reason="no OpenBLAS library is loaded")


def counts() -> list:
    return [get() for get, _, _ in parallel._BLAS]


def loaded() -> list:
    return [count for _, _, count in parallel._BLAS]


def probed_root(seen, fail=False):
    """A scalar graph whose one backward records the BLAS thread counts and
    whether graph recording is on; it raises after that when `fail`."""
    x = Tensor(np.ones(3), requires_grad=True)

    def bwd(g):
        seen.append((counts(), grad_enabled()))
        if fail:
            raise RuntimeError("planted")

    with enable_grad():
        return Tensor._make(np.array(1.0), (x,), bwd)


class TestRowBlocks:
    @pytest.mark.parametrize("n, size, stops", [
        (0, 4, [0]), (1, 4, [1]), (2, 4, [2]), (4, 4, [4]), (5, 4, [5]), (6, 4, [4, 6]),
        (9, 4, [4, 9]), (10, 4, [4, 8, 10]), (3, 1, [1, 3]), (3, 0, [1, 3]),
    ])
    def test_blocks_cover_the_rows_and_never_end_in_one_row(self, n, size, stops):
        blocks = parallel.row_blocks(n, size)
        assert [b.stop for b in blocks] == stops
        assert [b.start for b in blocks] == [0] + stops[:-1]


class TestBlasThreads:
    """Every loaded OpenBLAS library runs one thread, except for graph work:
    inside enable_grad() and during backward() it gets its load-time count."""

    def test_numpy_openblas_is_found(self):
        if "openblas" not in numpy_blas_name():
            pytest.skip(f"numpy is built with {numpy_blas_name()}")
        assert parallel._BLAS and parallel.blas_pinned()

    @needs_openblas
    def test_one_thread_outside_graph_work(self):
        assert counts() == [1] * len(parallel._BLAS)
        with enable_grad():
            assert counts() == loaded()
        assert counts() == [1] * len(parallel._BLAS)

    @needs_openblas
    def test_backward_gets_the_load_time_count_without_recording(self):
        seen = []
        backward(probed_root(seen))
        assert seen == [(loaded(), False)]
        assert counts() == [1] * len(parallel._BLAS)

    @needs_openblas
    def test_restored_after_nested_blocks(self):
        with enable_grad():
            with enable_grad():
                assert counts() == loaded()
            assert counts() == loaded()
            seen = []
            backward(probed_root(seen))
            assert seen == [(loaded(), True)] and counts() == loaded()
        assert counts() == [1] * len(parallel._BLAS)

    @needs_openblas
    def test_restored_after_exceptions(self):
        with pytest.raises(KeyError):
            with enable_grad():
                raise KeyError("planted")
        assert counts() == [1] * len(parallel._BLAS)
        seen = []
        with pytest.raises(RuntimeError, match="planted"):
            backward(probed_root(seen, fail=True))
        assert seen == [(loaded(), False)]
        assert counts() == [1] * len(parallel._BLAS)

    def test_one_thread_cap_is_never_raised(self):
        script = """
import json
import numpy as np
from gair import parallel
from gair.tensor import Tensor, backward, enable_grad
counts = lambda: [get() for get, _, _ in parallel._BLAS]
seen = [counts()]
x = Tensor(np.ones((300, 300)), requires_grad=True)
with enable_grad():
    seen.append(counts())
    loss = (x @ x).sum()
backward(loss)
seen.append(counts())
print(json.dumps({"loaded": [c for _, _, c in parallel._BLAS], "seen": seen}))
"""
        src = str(Path(gair.__file__).resolve().parent.parent)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        report = json.loads(out.stdout)
        assert report["loaded"] == [1] * len(report["loaded"])
        assert all(c == 1 for seen in report["seen"] for c in seen)

    @needs_openblas
    def test_no_library_is_a_no_op(self, monkeypatch):
        getters = [get for get, _, _ in parallel._BLAS]
        monkeypatch.setattr(parallel, "_BLAS", [])
        assert not parallel.blas_pinned()
        with enable_grad():
            assert [get() for get in getters] == [1] * len(getters)
        seen = []
        backward(probed_root(seen))
        assert seen == [([], False)]

    @pytest.mark.parametrize("maps", [
        "",
        "7f0000000000-7f0000001000 r-xp 00000000 00:00 0 \n7f0000001000-7f0000002000 r--p 00000000 fd:01 42 /usr/lib/libm.so.6\n",
        "7f0000000000-7f0000001000 r-xp 00000000 fd:01 7 /nonexistent/libscipy_openblas64_-0.so\n",
    ], ids=["empty", "no-openblas", "unloadable-openblas"])
    def test_maps_without_a_usable_library_find_none(self, tmp_path, maps):
        path = tmp_path / "maps"
        path.write_text(maps)
        assert parallel._openblas_libraries(str(path)) == []

    def test_unreadable_maps_find_none(self, tmp_path):
        assert parallel._openblas_libraries(str(tmp_path / "missing")) == []
