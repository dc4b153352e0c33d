import json
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ldpcbounds import ConfigError, DegreeDistribution, EnsembleSpec, sample_graph, \
    save_alist
from ldpcbounds.cli import _build_parser, main
from ldpcbounds.experiments import (_CHANNELS, _ENSEMBLE_KEYS, CSV_HEADERS,
                                    ExperimentConfig, build_channel, build_spec, run,
                                    validate)

REGULAR_ENSEMBLE = {"n_vars": 120, "var_dist": {"3": 1.0}, "check_dist": {"4": 1.0}}
# Check degree 2 is below the irregular recursion's Kmax >= 3.
LOW_CHECK_DEGREE_ENSEMBLE = {"n_vars": 120, "var_dist": {"1": 0.5, "2": 0.5},
                             "check_dist": {"2": 1.0}}
EDGE_ENSEMBLE = {
    "n_vars": 400, "perspective": "edge",
    "var_dist": {"2": 0.38354, "3": 0.04237, "4": 0.57409},
    "check_dist": {"5": 0.24123, "6": 0.75877},
}


def make_config(**kwargs):
    return ExperimentConfig.from_dict(kwargs)


_REGULAR_34 = {"n_vars": 5400, "var_dist": {"3": 1.0}, "check_dist": {"4": 1.0}}
_FIGURE6_ENSEMBLE = EDGE_ENSEMBLE | {"n_vars": 20000}
# Every field set, none at its default; threads and out_dir stay out of the hash.
_EVERY_FIELD = {
    "kind": "figure5", "seed": 7, "ensemble": REGULAR_ENSEMBLE, "alist": "g.alist",
    "channel": {"type": "bec", "epsilon": 0.5}, "iterations": [2, 1, 2],
    "theta1": 0.95, "a0": 0.75, "a0_anchor": 1, "trials": 12, "code": "ensemble",
    "d_max": 6, "n_instances": 2, "pairs_per_instance": 25, "n_samples": 5,
    "threads": 2, "trials_per_block": 5, "out_dir": "x",
}
# Full config hashes; a change here changes every manifest's config_hash.
PINNED_HASHES = [
    ({"kind": "figure5", "seed": 20260810, "ensemble": _REGULAR_34,
      "channel": {"type": "bec", "epsilon": 0.6}, "iterations": [1, 2, 3, 4],
      "trials": 371, "code": "peg"},
     "6a400e23b9fbf25d7af78de9eff2f2792c920a4b99f21562b0958243a416c04b"),
    ({"kind": "figure6", "seed": 20260810, "ensemble": _FIGURE6_ENSEMBLE,
      "d_max": 14, "n_instances": 6, "pairs_per_instance": 250},
     "14ea41abcf1b453eba6927b2ab96e3b32c092f49f353a99c589897f861617761"),
    ({"kind": "simulate", "seed": 20260810, "ensemble": _REGULAR_34,
      "channel": {"type": "biawgn", "sigma2": 0.7}, "iterations": [2, 4, 6, 8],
      "trials": 200, "code": "ensemble"},
     "eec9927c74e895d5dad25387ea3a7246262c18bd52b8256c4de13cc0b4cf7fe8"),
    ({"kind": "oracle", "seed": 20260810,
      "ensemble": {"n_vars": 900, "var_dist": {"3": 1.0}, "check_dist": {"4": 1.0}},
      "iterations": [1], "n_samples": 2000},
     "ff7ea191a4e04ebb52d216a2528ca4efdad40e2d56727aa359695e106a720c73"),
    ({"kind": "figure6", "seed": 20260810, "ensemble": _FIGURE6_ENSEMBLE,
      "d_max": 14, "n_instances": 50, "pairs_per_instance": 250},
     "eda26feeeb5bf19752a53e38823f0415cac02d6b1a226c8d2b3b0dd87d29c3c1"),
    (_EVERY_FIELD, "c3be7af33344af34c2395962be40305ba03a56af4e2020d8529def0acc6286a2"),
    ({"kind": "de", "seed": 0},
     "ed19f70578e8eb5f94c72b1fb5834b7795578db953f812deb9beddac40ded88b"),
]


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestConfigParsing:
    def test_requires_seed(self):
        with pytest.raises(ConfigError):
            make_config(kind="de")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            make_config(kind="de", seed=1, typo=3)

    def test_hash_ignores_out_dir_and_threads(self):
        a = make_config(kind="de", seed=1, ensemble=REGULAR_ENSEMBLE,
                        channel={"type": "bec", "epsilon": 0.4}, iterations=[1],
                        out_dir="x", threads=1)
        b = make_config(kind="de", seed=1, ensemble=REGULAR_ENSEMBLE,
                        channel={"type": "bec", "epsilon": 0.4}, iterations=[1],
                        out_dir="y", threads=8)
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize("data, digest", PINNED_HASHES, ids=[
        "figure5-bec", "figure6-tail", "simulate-awgn", "oracle-l1",
        "acceptance-figure6", "every-field", "defaults"])
    def test_config_hash_pinned(self, data, digest):
        cfg = ExperimentConfig.from_dict(data)
        assert cfg.config_hash() == digest
        assert list(cfg.canonical_dict()) == [
            "kind", "seed", "ensemble", "alist", "channel", "iterations", "theta1",
            "a0", "a0_anchor", "trials", "code", "d_max", "n_instances",
            "pairs_per_instance", "n_samples", "trials_per_block"]

    def test_edge_perspective_ensemble(self):
        spec = build_spec(make_config(kind="tail", seed=1, ensemble=EDGE_ENSEMBLE,
                                      d_max=4))
        assert spec.n_vars == 400
        assert spec.var_dist == DegreeDistribution.from_edge(
            {2: 0.38354, 3: 0.04237, 4: 0.57409})
        assert spec.check_dist == DegreeDistribution.from_edge({5: 0.24123, 6: 0.75877})

    def test_eb_n0_conversion_notes(self):
        cfg = make_config(kind="de", seed=1, ensemble=REGULAR_ENSEMBLE,
                          channel={"type": "biawgn", "eb_n0_db": -0.3},
                          iterations=[1])
        channel, notes = build_channel(cfg, build_spec(cfg))
        assert channel.sigma2 == pytest.approx(2.143038610475213, rel=1e-12)
        assert notes["design_rate"] == pytest.approx(0.25)


class TestValidate:
    def test_clean_config(self):
        cfg = make_config(kind="bounds", seed=1, ensemble=REGULAR_ENSEMBLE,
                          channel={"type": "bec", "epsilon": 0.5}, iterations=[1])
        assert validate(cfg).ok

    def test_missing_channel(self):
        cfg = make_config(kind="simulate", seed=1, ensemble=REGULAR_ENSEMBLE,
                          iterations=[1], trials=5)
        report = validate(cfg)
        assert not report.ok

    def test_low_degree_error(self, tmp_path):
        cfg = make_config(
            kind="bounds", seed=1,
            ensemble={"n_vars": 120, "var_dist": {"2": 1.0}, "check_dist": {"4": 1.0}},
            channel={"type": "bec", "epsilon": 0.5}, iterations=[1])
        report = validate(cfg)
        assert any("degree must be >= 3" in e for e in report.errors)
        with pytest.raises(ConfigError, match="degree must be >= 3"):
            run(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_saturation_info(self):
        cfg = make_config(kind="bounds", seed=1, ensemble=REGULAR_ENSEMBLE,
                          channel={"type": "bec", "epsilon": 0.5},
                          iterations=[1, 9])
        report = validate(cfg)
        assert any("degenerates" in m for m in report.infos)

    def test_regime_infos_match_the_bound(self, tmp_path):
        # The regular thresholds at the maximum degrees (3.525 for
        # saturation) do not apply here: bounds.csv has w = 11,144.6 at l=4.
        cfg = make_config(kind="bounds", seed=1, ensemble=_FIGURE6_ENSEMBLE,
                          channel={"type": "bec", "epsilon": 0.45},
                          iterations=[1, 2, 3, 4, 5, 6])
        infos = validate(cfg).infos
        run(cfg, tmp_path)
        _, rows = read_rows(tmp_path / "bounds.csv")
        above = [int(r[0]) for r in rows if r[1] == "above-threshold"]
        assert above
        assert [int(re.match(r"l=(\d+) ", m)[1]) for m in infos] == above
        assert not any(m.startswith("l=4 ") and "w=N" in m for m in infos)

    @pytest.mark.parametrize("kind", ["de", "simulate", "oracle"])
    def test_no_regime_infos_without_a_bound(self, kind):
        cfg = make_config(kind=kind, seed=1, ensemble=REGULAR_ENSEMBLE,
                          channel={"type": "bec", "epsilon": 0.5},
                          iterations=[1, 9], trials=2, n_samples=1)
        report = validate(cfg)
        assert report.ok and report.infos == []

    def test_missing_alist(self, tmp_path):
        cfg = make_config(kind="simulate", seed=1, alist=str(tmp_path / "nope.alist"),
                          channel={"type": "bec", "epsilon": 0.5},
                          iterations=[1], trials=2)
        report = validate(cfg)
        assert any("not found" in e for e in report.errors)

    def test_run_builds_the_spec_once(self, tmp_path, monkeypatch):
        built = []
        post_init = EnsembleSpec.__post_init__
        monkeypatch.setattr(EnsembleSpec, "__post_init__",
                            lambda spec: built.append(spec) or post_init(spec))
        run(make_config(kind="de", seed=1, ensemble=REGULAR_ENSEMBLE,
                        channel={"type": "bec", "epsilon": 0.4}, iterations=[3]),
            tmp_path)
        assert len(built) == 1


class TestRunKinds:
    def test_bounds_regular(self, tmp_path):
        cfg = make_config(kind="bounds", seed=1, ensemble=REGULAR_ENSEMBLE,
                          channel={"type": "biawgn", "sigma2": 1.0},
                          iterations=[0, 1, 2], a0=0.5)
        run(cfg, tmp_path)
        header, rows = read_rows(tmp_path / "bounds.csv")
        assert header == CSV_HEADERS["bounds"]
        assert len(rows) == 3
        assert rows[1][1] == "tree"
        assert float(rows[1][6]) <= float(rows[1][3])  # relaxation below exact Q form
        assert rows[1][5] != ""  # supplied a0 column populated

    def test_bounds_irregular(self, tmp_path):
        cfg = make_config(kind="bounds", seed=1, ensemble=EDGE_ENSEMBLE,
                          channel={"type": "bec", "epsilon": 0.3},
                          iterations=[1, 2, 3])
        run(cfg, tmp_path)
        header, rows = read_rows(tmp_path / "bounds.csv")
        values = [float(r[3]) for r in rows]
        assert values == sorted(values, reverse=True)

    def test_de(self, tmp_path):
        cfg = make_config(kind="de", seed=1, ensemble=REGULAR_ENSEMBLE,
                          channel={"type": "bec", "epsilon": 0.4}, iterations=[5])
        run(cfg, tmp_path)
        header, rows = read_rows(tmp_path / "de.csv")
        assert header == CSV_HEADERS["de"]
        assert len(rows) == 6
        assert float(rows[0][2]) == 0.4

    def test_recursion(self, tmp_path):
        cfg = make_config(kind="recursion", seed=1, ensemble=EDGE_ENSEMBLE,
                          iterations=[3])
        manifest = run(cfg, tmp_path)
        header, rows = read_rows(tmp_path / "recursion.csv")
        assert header == CSV_HEADERS["recursion"]
        assert len(rows) == 3
        assert rows[0][1] == ""  # the variable-side intermediate starts at t=2
        assert manifest["notes"]["w_ub"] > 0

    def test_tail(self, tmp_path):
        cfg = make_config(kind="tail", seed=1, ensemble=EDGE_ENSEMBLE, d_max=6)
        run(cfg, tmp_path)
        header, rows = read_rows(tmp_path / "tail.csv")
        assert header == CSV_HEADERS["tail"]
        assert float(rows[0][1]) == 1.0
        assert float(rows[0][2]) == pytest.approx(1 - 1 / 400)

    def test_figure6(self, tmp_path):
        cfg = make_config(kind="figure6", seed=1, ensemble=EDGE_ENSEMBLE,
                          d_max=6, n_instances=2, pairs_per_instance=25)
        manifest = run(cfg, tmp_path)
        header, rows = read_rows(tmp_path / "figure6.csv")
        assert header == CSV_HEADERS["figure6"]
        assert manifest["notes"]["n_pairs"] == 50

    def test_oracle(self, tmp_path):
        cfg = make_config(kind="oracle", seed=1, ensemble=REGULAR_ENSEMBLE,
                          iterations=[1], n_samples=20)
        run(cfg, tmp_path)
        header, rows = read_rows(tmp_path / "oracle.csv")
        assert header == CSV_HEADERS["oracle"]
        assert int(rows[0][0]) == 20
        _, weights = read_rows(tmp_path / "oracle_weights.csv")
        assert len(weights) <= 20

    def test_simulate_with_alist(self, tmp_path, spec34_900):
        g = sample_graph(
            EnsembleSpec(60, DegreeDistribution.regular(3), DegreeDistribution.regular(4)),
            3)
        alist_path = tmp_path / "g.alist"
        save_alist(g, alist_path)
        cfg = make_config(kind="simulate", seed=2, alist=str(alist_path),
                          channel={"type": "bec", "epsilon": 0.4},
                          iterations=[0, 2], trials=20)
        run(cfg, tmp_path)
        header, rows = read_rows(tmp_path / "simulate.csv")
        assert header == CSV_HEADERS["simulate"]
        assert float(rows[1][1]) <= float(rows[0][1])

    def test_figure5_regular(self, tmp_path):
        cfg = make_config(kind="figure5", seed=4, ensemble=REGULAR_ENSEMBLE,
                          channel={"type": "bec", "epsilon": 0.6},
                          iterations=[1, 2], trials=25, code="peg")
        manifest = run(cfg, tmp_path)
        header, rows = read_rows(tmp_path / "figure5.csv")
        assert header == CSV_HEADERS["figure5"]
        assert "fitted" in manifest["notes"]["upper_bound_label"]
        assert manifest["notes"]["a0_anchor"] == 2
        for row in rows:
            g_low, g_up, g_sim = float(row[1]), float(row[3]), float(row[4])
            assert g_up <= g_sim <= g_low

    def test_figure5_supplied_a0(self, tmp_path):
        cfg = make_config(kind="figure5", seed=4, ensemble=REGULAR_ENSEMBLE,
                          channel={"type": "bec", "epsilon": 0.6},
                          iterations=[1], trials=10, code="ensemble", a0=0.75)
        manifest = run(cfg, tmp_path)
        assert "supplied" in manifest["notes"]["upper_bound_label"]
        _, rows = read_rows(tmp_path / "figure5.csv")
        # gamma of 2**(-a0*(j-1)**l) in log space
        assert float(rows[0][3]) == pytest.approx(np.log2(0.75) + 1, rel=1e-12)

    def test_figure5_anchor_override(self, tmp_path):
        cfg = make_config(kind="figure5", seed=4, ensemble=REGULAR_ENSEMBLE,
                          channel={"type": "bec", "epsilon": 0.6},
                          iterations=[1, 2], trials=10, code="ensemble",
                          a0_anchor=1)
        manifest = run(cfg, tmp_path)
        assert manifest["notes"]["a0_anchor"] == 1
        _, rows = read_rows(tmp_path / "figure5.csv")
        # At the anchor the fitted curve passes through the DE point.
        assert float(rows[0][3]) == pytest.approx(float(rows[0][2]), rel=1e-9)


class TestDeterminism:
    def test_byte_identical_reruns_any_thread_count(self, tmp_path):
        base = dict(kind="figure5", seed=9, ensemble=REGULAR_ENSEMBLE,
                    channel={"type": "bec", "epsilon": 0.5},
                    iterations=[1, 2], trials=30, code="ensemble")
        m1 = run(make_config(**base), tmp_path / "a")
        m2 = run(make_config(**base, threads=4), tmp_path / "b")
        for name in m1["outputs"]:
            assert m1["outputs"][name]["sha256"] == m2["outputs"][name]["sha256"]
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert m1["config_hash"] == m2["config_hash"]


class TestCli:
    def write_config(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return path

    def test_successful_run(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {
            "kind": "de", "seed": 1, "ensemble": REGULAR_ENSEMBLE,
            "channel": {"type": "bec", "epsilon": 0.4}, "iterations": [3]})
        rc = main(["de", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "de.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_validate_subcommand(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {
            "kind": "de", "seed": 1, "ensemble": REGULAR_ENSEMBLE,
            "channel": {"type": "bec", "epsilon": 0.4}, "iterations": [3]})
        assert main(["validate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out

    def test_config_error_exit_code(self, tmp_path):
        path = self.write_config(tmp_path, {
            "kind": "de", "seed": 1, "ensemble": REGULAR_ENSEMBLE,
            "channel": {"type": "bec"}, "iterations": [3]})
        assert main(["de", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_kind_mismatch_exit_code(self, tmp_path):
        path = self.write_config(tmp_path, {
            "kind": "de", "seed": 1, "ensemble": REGULAR_ENSEMBLE,
            "channel": {"type": "bec", "epsilon": 0.4}, "iterations": [3]})
        assert main(["bounds", "--config", str(path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["de", "--config", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("contents", [None, b"\xff\xfe{}"],
                             ids=["directory", "not-utf8"])
    def test_unreadable_config_file(self, tmp_path, capsys, contents):
        path = tmp_path / "config.json"
        if contents is None:
            path.mkdir()
        else:
            path.write_bytes(contents)
        assert main(["de", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_capacity_exit_code(self, tmp_path):
        path = self.write_config(tmp_path, {
            "kind": "oracle", "seed": 1,
            "ensemble": {"n_vars": 200, "var_dist": {"3": 1.0},
                         "check_dist": {"6": 1.0}},
            "iterations": [3], "n_samples": 2})
        assert main(["oracle", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("kind, changes", [
        ("simulate", {"iterations": [-1]}),
        ("figure5", {"a0_anchor": 3}),
        ("figure5", {"a0_anchor": -1}),
        ("simulate", {"seed": "abc"}),
        ("simulate", {"trials": "10"}),
        ("simulate", {"trials": -3}),
        ("simulate", {"trials": 2.5}),
        ("simulate", {"trials_per_block": 0}),
        ("simulate", {"threads": "2"}),
        ("simulate", {"threads": 0}),
        ("bounds", {"theta1": "x"}),
        ("bounds", {"theta1": 2.0}),
        ("bounds", {"a0": "x"}),
        ("tail", {"d_max": "5"}),
        ("tail", {"d_max": -1}),
        ("figure6", {"d_max": 4, "pairs_per_instance": 5, "n_instances": "2"}),
        ("figure6", {"d_max": 4, "pairs_per_instance": 5, "n_instances": -2}),
        ("oracle", {"n_samples": "3"}),
        ("oracle", {"n_samples": -3}),
        ("oracle", {"n_samples": 2.5}),
        ("simulate", {"alist": 5}),
        ("simulate", {"alist": "."}),
        ("simulate", {"code": "foo"}),
        ("simulate", {"channel": {"type": "biawgn", "sigma2": 1e-310}}),
        ("de", {"ensemble": REGULAR_ENSEMBLE | {"perspektive": "edge"}}),
        ("de", {"channel": {"type": "bec", "epsilon": 0.4, "q": 0.1}}),
        ("de", {"channel": {"type": "biawgn", "sigma2": 0.8, "eb_n0_db": 1.0}}),
        ("de", {"channel": {"type": "biawgn", "eb_n0_db": 1e6}}),
        ("de", {"channel": {"type": "biawgn", "eb_n0_db": -1e6}}),
        ("de", {"channel": {"type": "biawgn", "eb_n0_db": -3100}}),
        ("de", {"channel": {"type": "bsc", "q": 0.05}}),
        ("figure5", {"channel": {"type": "bsc", "q": 0.05}}),
        ("bounds", {"ensemble": {"n_vars": 120, "var_dist": {"2": 1.0},
                                 "check_dist": {"4": 1.0}}}),
        ("recursion", {"ensemble": LOW_CHECK_DEGREE_ENSEMBLE}),
        ("bounds", {"ensemble": LOW_CHECK_DEGREE_ENSEMBLE}),
    ], ids=["negative-iterations", "anchor-past-range", "negative-anchor", "string-seed",
            "string-trials", "negative-trials", "float-trials", "zero-trials-per-block",
            "string-threads", "zero-threads", "string-theta1", "theta1-above-one",
            "string-a0", "string-d-max", "negative-d-max", "string-n-instances",
            "negative-n-instances", "string-n-samples", "negative-n-samples",
            "float-n-samples", "integer-alist", "directory-alist",
            "unknown-code", "subnormal-sigma2", "misspelt-perspective",
            "bec-with-q", "sigma2-and-eb-n0", "eb-n0-overflow", "eb-n0-underflow",
            "eb-n0-infinite-sigma2", "bsc-de", "bsc-figure5", "regular-2-4-bounds",
            "check-degree-2-recursion", "check-degree-2-bounds"])
    def test_bad_config_exit_code(self, tmp_path, capsys, kind, changes):
        """A config the run rejects is rejected by validate too, and the run
        writes nothing."""
        path = self.write_config(tmp_path, {
            "kind": kind, "seed": 1, "ensemble": REGULAR_ENSEMBLE,
            "channel": {"type": "bec", "epsilon": 0.4}, "iterations": [1, 2],
            "trials": 4, "code": "ensemble", **changes})
        assert main(["validate", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "error:" in err
        assert "error:" not in out
        assert main([kind, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, data, code", [
        ("figure5", {"ensemble": REGULAR_ENSEMBLE, "channel": {"type": "bec", "epsilon": 0.0},
                     "iterations": [1, 2], "trials": 4, "code": "ensemble"}, 2),
        ("oracle", {"ensemble": {"n_vars": 1200, "var_dist": {"3": 1.0},
                                 "check_dist": {"4": 1.0}},
                    "iterations": [4], "n_samples": 2}, 3),
    ], ids=["anchor-fit-at-ber-0", "oracle-capacity"])
    def test_failed_run_writes_nothing(self, tmp_path, capsys, kind, data, code):
        """Failures that depend on the computed data pass validate, and the
        run still leaves no output directory."""
        path = self.write_config(tmp_path, {"kind": kind, "seed": 1, **data})
        assert main(["validate", "--config", str(path)]) == 0
        assert main([kind, "--config", str(path), "--out", str(tmp_path / "o")]) == code
        assert not (tmp_path / "o").exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "bounds", "de", "recursion", "tail", "figure6", "oracle", "validate"])
    def test_threads_only_for_monte_carlo_kinds(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(tmp_path / "c.json"), "--threads", "2"])
        assert exc.value.code == 2
        for kind in ("simulate", "figure5"):
            args = _build_parser().parse_args(
                [kind, "--config", "c.json", "--threads", "2"])
            assert args.threads == 2

    def test_seed_override_changes_hash(self, tmp_path):
        path = self.write_config(tmp_path, {
            "kind": "de", "seed": 1, "ensemble": REGULAR_ENSEMBLE,
            "channel": {"type": "bec", "epsilon": 0.4}, "iterations": [3]})
        assert main(["de", "--config", str(path), "--seed", "7",
                     "--out", str(tmp_path / "o1")]) == 0
        manifest = json.loads((tmp_path / "o1" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7


# One small base config per kind; the fuzz replaces one or two fields.
FUZZ_BASES = {
    "bounds": {"ensemble": REGULAR_ENSEMBLE, "channel": {"type": "bec", "epsilon": 0.4},
               "iterations": [1, 2]},
    "simulate": {"ensemble": REGULAR_ENSEMBLE, "channel": {"type": "bsc", "q": 0.05},
                 "iterations": [0, 2], "trials": 4, "code": "ensemble"},
    "de": {"ensemble": REGULAR_ENSEMBLE, "channel": {"type": "biawgn", "sigma2": 0.8},
           "iterations": [3]},
    "recursion": {"ensemble": EDGE_ENSEMBLE | {"n_vars": 100}, "iterations": [3]},
    "tail": {"ensemble": EDGE_ENSEMBLE | {"n_vars": 100}, "d_max": 4},
    "oracle": {"ensemble": REGULAR_ENSEMBLE | {"n_vars": 40}, "iterations": [1],
               "n_samples": 3},
    "figure5": {"ensemble": REGULAR_ENSEMBLE, "channel": {"type": "bec", "epsilon": 0.5},
                "iterations": [1, 2], "trials": 4, "code": "peg"},
    "figure6": {"ensemble": REGULAR_ENSEMBLE, "d_max": 4, "n_instances": 2,
                "pairs_per_instance": 3},
}
_SMALL_INTS = st.integers(-4, 6)
_SCALARS = st.one_of(st.none(), st.booleans(), _SMALL_INTS, st.floats(width=32),
                     st.text(max_size=4))
_FUZZ_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                         st.dictionaries(st.text(max_size=4), _SCALARS, max_size=2))
_FUZZ_KEYS = st.sampled_from([f.name for f in fields(ExperimentConfig)] + ["typo"])
_DELETE = object()
_NESTED_KEYS = {
    "ensemble": [*_ENSEMBLE_KEYS, "typo"],
    "channel": ["type", *(key for _, params in _CHANNELS.values() for key in params),
                "typo"],
}


def _nested_changes(block):
    """Set, replace or delete up to two keys inside one nested block."""
    return st.dictionaries(st.sampled_from(_NESTED_KEYS[block]),
                           st.one_of(_FUZZ_VALUES, st.just(_DELETE)), max_size=2)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(FUZZ_BASES)),
       changes=st.dictionaries(_FUZZ_KEYS, _FUZZ_VALUES, max_size=2),
       ensemble=_nested_changes("ensemble"), channel=_nested_changes("channel"))
def test_cli_fuzz_exit_codes(kind, changes, ensemble, channel):
    """Any change of up to two fields, and of up to two keys inside each of
    the ensemble and channel blocks, of a valid config exits 0, 2 or 3, and
    only a run that exits 0 makes its output directory."""
    config = {"kind": kind, "seed": 1, **FUZZ_BASES[kind]}
    for block, edits in (("ensemble", ensemble), ("channel", channel)):
        if edits:
            merged = {**config.get(block, {}), **edits}
            config[block] = {k: v for k, v in merged.items() if v is not _DELETE}
    config.update(changes)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code = main([kind, "--config", path, "--out", f"{tmp}/out"])
        assert code in (0, 2, 3)
        assert Path(f"{tmp}/out").exists() == (code == 0)


def test_readme_field_table_matches_schema():
    """The README's config-field table names exactly the top-level fields."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Field | Type |", 1)[1].split("\n\n", 1)[0]
    names = {name for row in table.splitlines()[2:]
             for name in re.findall(r"`([^`]+)`", row.split("|")[1])}
    assert names == {f.name for f in fields(ExperimentConfig)}
