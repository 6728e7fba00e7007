import math

import pytest

from rbcsp.analysis import p_threshold
from rbcsp.core import CspParams, InsufficientSamplesError, ModelKind, ParameterError
from rbcsp.harness import (
    ExperimentRecord,
    SweepSpec,
    crossing_estimate,
    forced_vs_random,
    scaling_csv,
    scaling_study,
    sweep,
    sweep_csv,
)


def base_params(p=0.3, n=8):
    return CspParams(ModelKind.RB, 2, n, 0.8, 1.5, p)


class TestSweep:
    def test_p0_point_fully_sat(self):
        spec = SweepSpec(
            base=base_params(), axis="p", values=(0.0,),
            samples_per_point=20, base_seed=1, node_limit=100_000,
        )
        rec = sweep(spec)[0]
        assert rec.sat_fraction == 1.0
        assert rec.censored == 0
        assert rec.samples == 20

    def test_p1_point_fully_unsat(self):
        spec = SweepSpec(
            base=base_params(), axis="p", values=(1.0,),
            samples_per_point=20, base_seed=1, node_limit=100_000,
        )
        rec = sweep(spec)[0]
        assert rec.sat_fraction == 0.0

    def test_row_count_matches_grid(self):
        spec = SweepSpec(
            base=base_params(), axis="p", values=(0.1, 0.3, 0.5),
            samples_per_point=5, base_seed=2, node_limit=100_000,
        )
        records = sweep(spec)
        assert len(records) == 3
        assert [r.axis_value for r in records] == [0.1, 0.3, 0.5]

    def test_r_axis(self):
        spec = SweepSpec(
            base=base_params(p=0.25), axis="r", values=(0.5, 3.0),
            samples_per_point=10, base_seed=3, node_limit=100_000,
        )
        records = sweep(spec)
        assert records[0].sat_fraction >= records[-1].sat_fraction

    def test_csv_determinism(self):
        spec = SweepSpec(
            base=base_params(), axis="p", values=(0.2, 0.4),
            samples_per_point=10, base_seed=9, node_limit=100_000,
        )
        assert sweep_csv(sweep(spec)) == sweep_csv(sweep(spec))

    def test_csv_header(self):
        text = sweep_csv([ExperimentRecord(0.1, 1.0, 2.0, 2.5, 0, 4)])
        lines = text.splitlines()
        assert lines[0] == "axis_value,sat_fraction,median_nodes,mean_nodes,censored,samples"
        assert lines[1] == "0.1,1.0,2.0,2.5,0,4"

    def test_unsorted_values_rejected(self):
        with pytest.raises(ParameterError):
            SweepSpec(base=base_params(), axis="p", values=(0.5, 0.1),
                      samples_per_point=1, base_seed=0, node_limit=10)

    def test_bad_axis_rejected(self):
        with pytest.raises(ParameterError):
            SweepSpec(base=base_params(), axis="alpha", values=(0.1,),
                      samples_per_point=1, base_seed=0, node_limit=10)

    def test_censoring_counted(self):
        spec = SweepSpec(
            base=base_params(p=0.45, n=12), axis="p", values=(0.45,),
            samples_per_point=10, base_seed=5, node_limit=3,
        )
        rec = sweep(spec)[0]
        assert rec.censored == 10
        assert math.isnan(rec.sat_fraction)
        assert rec.median_nodes >= 3  # censored runs back the lower-bound median


class TestCrossing:
    def test_interpolates(self):
        records = [
            ExperimentRecord(0.1, 1.0, 1, 1, 0, 1),
            ExperimentRecord(0.2, 0.75, 1, 1, 0, 1),
            ExperimentRecord(0.3, 0.25, 1, 1, 0, 1),
            ExperimentRecord(0.4, 0.0, 1, 1, 0, 1),
        ]
        assert crossing_estimate(records) == pytest.approx(0.25)

    def test_none_when_no_crossing(self):
        records = [ExperimentRecord(0.1, 1.0, 1, 1, 0, 1), ExperimentRecord(0.2, 0.9, 1, 1, 0, 1)]
        assert crossing_estimate(records) is None


class TestScaling:
    def test_csv_deterministic_and_shaped(self):
        rows = scaling_study(base_params(p=0.2), (6, 8), samples=10, base_seed=4, node_limit=100_000)
        text = scaling_csv(rows)
        assert text.splitlines()[0].startswith("n,median_nodes,sat_fraction")
        assert len(text.splitlines()) == 3
        rows2 = scaling_study(base_params(p=0.2), (6, 8), samples=10, base_seed=4, node_limit=100_000)
        assert scaling_csv(rows2) == text

    def test_forced_rows_all_sat(self):
        rows = scaling_study(base_params(p=0.3), (6, 8), samples=10, base_seed=4, node_limit=100_000)
        for _, rec in rows:
            assert rec.sat_fraction == 1.0

    def test_easy_control_run_backtrack_free(self):
        # far below threshold the solver walks straight to a solution
        rows = scaling_study(base_params(p=0.04), (6, 8, 10), samples=10, base_seed=6,
                             node_limit=100_000)
        for n, rec in rows:
            assert rec.median_nodes == n


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("driver", ["sweep", "scaling_study"])
def test_nonpositive_samples_rejected(driver, samples):
    with pytest.raises(ParameterError, match="samples per point"):
        if driver == "sweep":
            sweep(SweepSpec(base=base_params(), axis="p", values=(0.3,),
                            samples_per_point=samples, base_seed=0, node_limit=10))
        else:
            scaling_study(base_params(), (6,), samples=samples, base_seed=0, node_limit=10)


class TestForcedVsRandom:
    def test_p0_ratio_one(self):
        summary = forced_vs_random(base_params(p=0.0), samples=10, base_seed=3, node_limit=100_000)
        assert summary.ratio == 1.0
        assert summary.median_forced == 8.0  # backtrack-free floor: one node per variable
        assert summary.discarded_unsat == 0

    def test_deterministic(self):
        a = forced_vs_random(base_params(p=0.3), samples=10, base_seed=3, node_limit=100_000)
        b = forced_vs_random(base_params(p=0.3), samples=10, base_seed=3, node_limit=100_000)
        assert a == b

    def test_censored_runs_counted_per_arm(self):
        params = base_params(p=p_threshold(0.8, 1.5))
        summary = forced_vs_random(params, samples=12, base_seed=1, node_limit=20)
        assert (summary.censored_forced, summary.censored_random) == (1, 15)
        assert summary.samples_forced + summary.censored_forced == 12

    @pytest.mark.parametrize("samples", [9, 1, 0, -1])
    def test_fewer_than_ten_samples_rejected_before_generating(self, monkeypatch, samples):
        # each arm needs ten satisfiable runs, so no smaller sample can succeed
        monkeypatch.setattr("rbcsp.harness.generate", None)  # any generation would fail
        with pytest.raises(ParameterError, match="samples must be >= 10"):
            forced_vs_random(base_params(), samples=samples, base_seed=3, node_limit=100_000)

    def test_insufficient_samples_error(self):
        # p = 1: every random instance is UNSAT, so the random arm starves
        params = CspParams(ModelKind.RD, 2, 6, 0.8, 1.5, 0.99)
        with pytest.raises(InsufficientSamplesError):
            forced_vs_random(params, samples=10, base_seed=3, node_limit=100_000)
