"""Experiment harness: table/figure runners, shape checks, CLI."""

import numpy as np
import pytest

from repro.experiments import (
    PAPER_TABLES,
    PAPER_THREADS,
    Scale,
    run_alpha_ablation,
    run_buffer_ablation,
    run_cache_ablation,
    run_fig5,
    run_fig6,
    run_fig8,
    run_n123_ablation,
    run_pthread_anecdote,
    run_source_histogram,
    run_strong_table,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.common import SeriesResult, TableResult
from repro.experiments.shapes import (
    check_fig8,
    check_table2,
    run_all_shape_checks,
)
from repro.experiments.tables import TABLE_RUNNERS

TINY = Scale(name="tiny", nbodies=256, nsteps=2, warmup_steps=1,
             thread_counts=[1, 4, 8], weak_bodies_per_thread=48,
             weak_thread_counts=[2, 4, 8])


class TestPaperData:
    def test_all_tables_present(self):
        for tid in ("table2", "table3", "table4", "table5", "table6",
                    "table7", "table8", "table9"):
            assert tid in PAPER_TABLES

    def test_rows_have_nine_columns(self):
        for tid, table in PAPER_TABLES.items():
            for phase, row in table.items():
                assert len(row) == len(PAPER_THREADS), (tid, phase)

    def test_totals_close_to_phase_sums(self):
        for tid, table in PAPER_TABLES.items():
            phases = [k for k in table if k != "total"]
            for i in range(len(PAPER_THREADS)):
                s = sum(table[p][i] for p in phases)
                assert s == pytest.approx(table["total"][i], rel=0.05), tid

    def test_headline_numbers(self):
        assert PAPER_TABLES["table2"]["total"][-1] == 3244.2
        assert PAPER_TABLES["table8"]["total"][-1] == 2.0
        ratio = 3244.2 / 2.0
        assert 1500 < ratio < 1700  # the paper's ">1600x"


class TestTableRunners:
    def test_table_result_structure(self):
        res = run_strong_table("table2", "baseline", TINY)
        assert res.thread_counts == [1, 4, 8]
        assert len(res.totals) == 3
        assert "force" in res.phases
        for row in res.phases.values():
            assert len(row) == 3

    def test_totals_are_phase_sums(self):
        res = run_strong_table("table5", "cache", TINY)
        for i in range(len(res.thread_counts)):
            s = sum(res.phases[p][i] for p in res.phases)
            assert s == pytest.approx(res.totals[i])

    def test_markdown_includes_paper_reference(self):
        res = run_strong_table("table2", "baseline", TINY)
        md = res.to_markdown(paper=PAPER_TABLES["table2"], title="t2")
        assert "paper" in md
        assert "Force Comp." in md

    def test_all_runners_registered(self):
        assert set(TABLE_RUNNERS) == {f"table{i}" for i in range(2, 10)}

    def test_csv_roundtrip(self, tmp_path):
        res = run_strong_table("table2", "baseline", TINY)
        res.to_csv(tmp_path / "t.csv")
        text = (tmp_path / "t.csv").read_text()
        assert text.startswith("phase,1,4,8")


class TestFigures:
    @pytest.fixture(scope="class")
    def tables(self):
        ids = ["table2", "table3", "table4", "table5", "table6", "table7",
               "table8"]
        return {tid: TABLE_RUNNERS[tid](TINY) for tid in ids}

    def test_fig5_speedups_start_at_one(self, tables):
        res = run_fig5(TINY, tables=tables)
        for name, series in res.series.items():
            assert series[0] == pytest.approx(1.0)

    def test_fig5_final_level_speedup_positive(self, tables):
        res = run_fig5(TINY, tables=tables)
        assert res.series["+subspace"][-1] > 1.0

    def test_fig6_levels_recorded(self, tables):
        res = run_fig6(TINY, tables=tables)
        assert len(res.x) == 7
        assert "force" in res.series
        assert res.notes["threads"] == 8

    def test_fig8_series_shapes(self):
        res = run_fig8(TINY, nthreads=8)
        assert len(res.series["local_build"]) == 8
        assert len(res.series["merge"]) == 8
        checks = check_fig8(res)
        assert all(c.ok for c in checks), [c.detail for c in checks
                                           if not c.ok]

    def test_series_markdown_and_plot(self, tables):
        res = run_fig5(TINY, tables=tables)
        assert "threads" in res.to_markdown(title="x")
        assert "#" in res.ascii_plot()


class TestShapeChecks:
    def test_check_table2_passes_on_paper_data(self):
        paper = PAPER_TABLES["table2"]
        res = TableResult(
            table_id="table2", variant="baseline",
            thread_counts=list(PAPER_THREADS),
            phases={k: v for k, v in paper.items() if k != "total"},
            totals=list(paper["total"]),
        )
        checks = check_table2(res)
        assert all(c.ok for c in checks), [c.detail for c in checks]

    def test_all_checks_pass_on_paper_data(self):
        tables = {}
        for tid, paper in PAPER_TABLES.items():
            tables[tid] = TableResult(
                table_id=tid, variant="paper",
                thread_counts=list(PAPER_THREADS),
                phases={k: v for k, v in paper.items() if k != "total"},
                totals=list(paper["total"]),
            )
        checks = run_all_shape_checks(tables)
        bad = [c for c in checks if not c.ok]
        assert not bad, [f"{c.name}: {c.detail}" for c in bad]


class TestAblations:
    def test_n123_insensitive(self):
        res = run_n123_ablation(TINY, nthreads=8, values=[1, 4])
        f = res.series["force"]
        # "performance is good even with n1=n2=n3=1" -- within 4x
        assert max(f) <= 4 * min(f)

    def test_alpha_bound_holds(self):
        res = run_alpha_ablation(TINY, nthreads=8, alphas=[0.5, 1.0])
        assert all(r <= 1.0 + 1e-9 for r in res.series["max_cost/bound"])

    def test_alpha_controls_subspace_count(self):
        res = run_alpha_ablation(TINY, nthreads=8, alphas=[0.25, 2.0])
        assert res.series["subspaces"][0] >= res.series["subspaces"][1]

    def test_cache_ablation_little_difference(self):
        d = run_cache_ablation(TINY, nthreads=8)
        assert d["merged_local_copies"] == 0
        assert d["separate_local_copies"] > 0
        assert d["merged_misses"] == d["separate_misses"]
        # "little performance improvement" -- within 25%
        assert d["merged_force"] <= d["separate_force"] * 1.05
        assert d["merged_force"] >= d["separate_force"] * 0.75

    def test_source_histogram_sums_to_one(self):
        fr = run_source_histogram(TINY, nthreads=8)
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_buffer_copies_decrease_with_capacity(self):
        res = run_buffer_ablation(TINY, nthreads=4,
                                  factors=[1.05, 4.0])
        assert res.series["buffer_copies"][0] >= \
            res.series["buffer_copies"][1]
        assert res.series["buffer_copies"][1] == 0

    def test_anecdote_direction(self):
        a = run_pthread_anecdote(TINY, nthreads=8)
        assert a.slowdown > 5.0


class TestCli:
    def test_cli_writes_outputs(self, tmp_path, capsys):
        rc = cli_main(["--scale", "test", "--out", str(tmp_path),
                       "abl-cache"])
        assert rc == 0
        assert (tmp_path / "abl-cache.md").exists()

    def test_non_object_tree_backend_warns_once(self, tmp_path, capsys):
        from repro.experiments.common import SCALES

        rc = cli_main(["table2", "--scale", "test", "--backend", "flat",
                       "--out", str(tmp_path / "cli")])
        assert rc == 0
        out, err = capsys.readouterr()
        assert err.count("warning: --backend flat") == 1
        assert "UPC accounting" in err and "warning" not in out
        # the warning is stderr only: the table is what the runner writes
        scale = SCALES["test"].with_(overrides=(("force_backend", "flat"),))
        TABLE_RUNNERS["table2"](scale).to_csv(tmp_path / "direct.csv")
        assert (tmp_path / "cli" / "table2.csv").read_bytes() \
            == (tmp_path / "direct.csv").read_bytes()

    def test_object_tree_backend_does_not_warn(self, tmp_path, capsys):
        assert cli_main(["abl-cache", "--scale", "test", "--backend",
                         "object-tree", "--out", str(tmp_path)]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_cli_unknown_id(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["--out", str(tmp_path), "table99"])

    def test_cli_no_args_shows_help(self, capsys):
        rc = cli_main([])
        assert rc == 2
