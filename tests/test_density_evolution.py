import json
import os
import subprocess
import sys
from math import log, sqrt
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import erfc, log_ndtr

import ldpcbounds
from ldpcbounds import DegreeDistribution, de_bec, ga_awgn, phi_approx, phi_inverse, \
    q_function
from ldpcbounds.density_evolution import PHI_SPLIT, _phi_large, _phi_small

R3 = DegreeDistribution.regular(3)
R4 = DegreeDistribution.regular(4)
R6 = DegreeDistribution.regular(6)
REGULAR_34_5400 = {"n_vars": 5400, "var_dist": {"3": 1.0}, "check_dist": {"4": 1.0}}


def _fresh_process(code):
    """Standard output of ``code`` run in a new interpreter."""
    # Import the package under test, wherever it was imported from here.
    env = {**os.environ, "PYTHONPATH": str(Path(ldpcbounds.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout


class TestDeBec:
    def test_zero_erasure(self):
        trace = de_bec(R3, R6, 0.0, 5)
        assert (trace.message_error == 0).all()
        assert (trace.ber == 0).all()

    def test_first_iteration_value(self):
        trace = de_bec(R3, R6, 0.4, 1)
        assert trace.message_error[1] == pytest.approx(0.4 * (1 - 0.6 ** 5) ** 2, rel=1e-12)
        assert trace.message_error[1] == pytest.approx(0.34021, abs=1e-5)

    def test_below_threshold_converges(self):
        trace = de_bec(R3, R6, 0.3, 50)
        assert trace.message_error[50] < 1e-6

    def test_trace_lengths(self):
        trace = de_bec(R3, R4, 0.5, 7)
        assert trace.message_error.size == 8 and trace.ber.size == 8

    def test_monotone_non_increasing(self):
        for eps in (0.2, 0.4, 0.6, 0.8):
            trace = de_bec(R3, R4, eps, 12)
            assert (np.diff(trace.message_error) <= 1e-15).all()
            assert (np.diff(trace.ber) <= 1e-15).all()

    def test_regular_equals_generic_two_term_degenerate(self):
        # A two-term distribution with all mass shifted to one degree must
        # follow the single-term path exactly.
        near_regular = DegreeDistribution("node", {3: 1.0})
        a = de_bec(R3, R6, 0.35, 10)
        b = de_bec(near_regular, R6, 0.35, 10)
        assert np.array_equal(a.message_error, b.message_error)

    def test_threshold_bracketing(self):
        # (3,6) iterative threshold sits near 0.429.
        below = de_bec(R3, R6, 0.429 - 0.05, 200).message_error[-1]
        above = de_bec(R3, R6, 0.429 + 0.05, 200).message_error[-1]
        assert below < 1e-9
        assert above > 0.1


class TestGaAwgn:
    def test_iteration_zero_is_channel_q(self):
        for sigma2 in (0.5, 1.0, 2.143):
            trace = ga_awgn(R3, R4, sigma2, 0)
            assert trace.ber[0] == pytest.approx(q_function(1.0 / np.sqrt(sigma2)), rel=1e-12)

    def test_vanishing_noise(self):
        trace = ga_awgn(R3, R4, 1e-3, 3)
        assert (trace.ber < 1e-100).all()

    def test_non_increasing_at_low_snr_point(self):
        trace = ga_awgn(R3, R4, 2.14305, 5)
        assert (np.diff(trace.ber) <= 1e-15).all()

    def test_convergent_regime(self):
        # (3,6) at sigma2 well below threshold: the bit error collapses.
        trace = ga_awgn(R3, R6, 0.5, 30)
        assert trace.ber[-1] < 1e-12


class TestPhi:
    def test_split_literal_is_the_crossing(self):
        crossing = brentq(lambda s: _phi_small(s) - _phi_large(s), 4.0, 8.0)
        assert float(crossing) == PHI_SPLIT

    def test_import_leaves_scipy_optimize_unloaded(self):
        code = "import sys, ldpcbounds; print('scipy.optimize' in sys.modules)"
        # Import the package under test, wherever it was imported from here.
        env = {**os.environ, "PYTHONPATH": str(Path(ldpcbounds.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"

    def test_stitch_continuity(self):
        lo = phi_approx(PHI_SPLIT * (1 - 1e-9))
        hi = phi_approx(PHI_SPLIT * (1 + 1e-9))
        assert abs(lo - hi) / lo < 1e-3

    def test_boundary_values(self):
        assert phi_approx(0.0) == 1.0
        assert phi_approx(-2.0) == 1.0
        assert phi_approx(500.0) < 1e-50

    def test_strictly_decreasing(self):
        grid = np.linspace(1e-3, 60, 500)
        vals = [phi_approx(s) for s in grid]
        assert (np.diff(vals) < 0).all()

    def test_inverse_roundtrip(self):
        for s in (0.05, 0.5, 2.0, PHI_SPLIT, 10.0, 50.0, 200.0):
            assert phi_inverse(phi_approx(s)) == pytest.approx(s, rel=1e-6)

    def test_inverse_edge_cases(self):
        assert phi_inverse(1.0) == 0.0
        assert phi_inverse(2.0) == 0.0


class TestColdStart:
    """Importing the package and validating configs load no scipy module."""

    def test_import_and_validate_load_no_scipy(self):
        bec_figure5 = {"kind": "figure5", "seed": 1, "ensemble": REGULAR_34_5400,
                       "channel": {"type": "bec", "epsilon": 0.6},
                       "iterations": [1, 2, 3, 4], "trials": 371, "code": "peg"}
        awgn_simulate = {"kind": "simulate", "seed": 1, "ensemble": REGULAR_34_5400,
                         "channel": {"type": "biawgn", "sigma2": 0.7},
                         "iterations": [2, 4, 6, 8], "trials": 200}
        code = (
            "import json, sys\n"
            "import ldpcbounds, ldpcbounds.experiments, ldpcbounds.cli\n"
            "from ldpcbounds.experiments import ExperimentConfig, validate\n"
            f"for cfg in {[bec_figure5, awgn_simulate]!r}:\n"
            "    assert validate(ExperimentConfig.from_dict(cfg)).ok, cfg\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m == 'scipy' or m.startswith('scipy.'))))\n"
        )
        assert json.loads(_fresh_process(code)) == []

    def test_lazy_scipy_calls_are_the_direct_expressions(self):
        code = (
            "import json, sys\n"
            "from ldpcbounds import Biawgn, q_function\n"
            "before = 'scipy.special' in sys.modules\n"
            "q = float(q_function(1.3))\n"
            "b = float(Biawgn(0.7).neg_log2_ber_lower(6))\n"
            "print(json.dumps([before, q.hex(), b.hex()]))\n"
        )
        before, q, b = json.loads(_fresh_process(code))
        assert not before
        assert float.fromhex(q) == float(0.5 * erfc(1.3 / np.sqrt(2.0)))
        assert float.fromhex(b) == float(-log_ndtr(-sqrt(6 / 0.7)) / log(2.0))
