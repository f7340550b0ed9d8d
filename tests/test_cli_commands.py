"""CLI end-to-end smoke tests (tiny scales) and EventHandle units."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.sim.events import EventHandle


class TestEventHandle:
    def test_ordering_by_time_then_seq(self):
        early = EventHandle(1.0, 5, lambda: None)
        late = EventHandle(2.0, 1, lambda: None)
        tie_a = EventHandle(1.0, 1, lambda: None)
        assert tie_a < early < late

    def test_cancel_clears_payload(self):
        handle = EventHandle(1.0, 0, print, payload="x")
        handle.cancel()
        assert handle.cancelled
        assert handle.payload is None


class TestCLISmoke:
    def test_figure1_tiny(self, capsys):
        assert main(["figure1", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1a" in out and "Figure 1b" in out
        assert "0.999" in out  # the full utilization grid ran
        assert out.count("wtp") >= 14  # 7 rhos x 2 SDP sets

    def test_figure2_tiny(self, capsys):
        assert main(["figure2", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2a" in out and "Figure 2b" in out
        assert "40/30/20/10" in out

    def test_explain_cache_without_cache_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure3", "--no-cache", "--explain-cache"])
        assert "--explain-cache" in capsys.readouterr().err

    def test_store_dir_alone_leaves_a_resumable_store(self, capsys, tmp_path):
        """The result cache is the one store a sweep keeps: pointed back
        at the same cache directory, a rerun executes nothing."""
        argv = [
            "figure3", "--scale", "0.05", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert "0 cache hits, 2 executed" in capsys.readouterr().out
        assert main(argv) == 0
        assert "2 cache hits, 0 executed" in capsys.readouterr().out

    def test_help_lists_all_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name in ("figure1", "figure2", "figure3", "figure45", "table1",
                     "ablations", "selfcheck", "all"):
            assert name in out
