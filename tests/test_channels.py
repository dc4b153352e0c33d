import hashlib
import math

import numpy as np
import pytest

from ldpcbounds import Bec, Biawgn, Bsc, eb_n0_to_sigma2, transmit


class TestChannelValidation:
    def test_bec_range(self):
        Bec(0.0)
        Bec(1.0)
        with pytest.raises(ValueError):
            Bec(1.5)

    def test_bsc_range(self):
        with pytest.raises(ValueError):
            Bsc(0.5)
        with pytest.raises(ValueError):
            Bsc(0.0)

    def test_biawgn_positive(self):
        with pytest.raises(ValueError):
            Biawgn(0.0)

    @pytest.mark.parametrize("sigma2", [math.inf, math.nan])
    def test_biawgn_finite(self, sigma2):
        with pytest.raises(ValueError, match="finite"):
            Biawgn(sigma2)

    @pytest.mark.parametrize("channel, value", [(Biawgn, 1e-310), (Bsc, 1e-320)])
    def test_infinite_llr_scale_rejected(self, channel, value):
        with pytest.raises(ValueError, match="not finite"):
            channel(value)

    @pytest.mark.parametrize("method", ["ber_lower", "neg_log2_ber_lower"])
    @pytest.mark.parametrize("channel", [Bec(0.5), Bec(0.0), Bsc(0.1), Biawgn(1.0)],
                             ids=["bec", "bec-noiseless", "bsc", "biawgn"])
    def test_negative_weight_rejected(self, channel, method):
        # Every channel bound takes a weight w >= 0, whatever its parameter.
        with pytest.raises(ValueError, match="weight"):
            getattr(channel, method)(-1.0)


class TestTransmit:
    def test_bec_no_erasures(self):
        s = np.array([0, 1, 0, 1], dtype=np.int8)
        llr = transmit(s, Bec(0.0), 1)
        assert np.array_equal(llr, np.inf * (1 - 2 * s.astype(float)))

    def test_bec_all_erased(self):
        llr = transmit(np.zeros(64, dtype=np.int8), Bec(1.0), 2)
        assert (llr == 0.0).all()

    def test_bec_all_zero_never_negative(self):
        llr = transmit(np.zeros(512, dtype=np.int8), Bec(0.4), 3)
        assert set(np.unique(llr)) <= {0.0, np.inf}

    def test_bsc_magnitude(self):
        # Crossover 0.1, enough bits that both flipped and unflipped occur.
        llr = transmit(np.zeros(4000, dtype=np.int8), Bsc(0.1), 4)
        expect = math.log(9.0)
        assert set(np.round(np.unique(llr), 12)) == {round(-expect, 12), round(expect, 12)}
        assert llr[llr > 0].size > llr[llr < 0].size
        assert np.isclose(llr.max(), 2.1972245773362196)

    def test_biawgn_scaling(self):
        sigma2 = 0.5
        llr = transmit(np.zeros(20000, dtype=np.int8), Biawgn(sigma2), 5)
        # LLR = 2y/sigma2 with y ~ N(+1, sigma2)
        assert llr.mean() == pytest.approx(2.0 / sigma2, rel=0.05)
        assert llr.std() == pytest.approx(2.0 / math.sqrt(sigma2), rel=0.05)

    def test_deterministic_per_seed(self):
        s = np.zeros(32, dtype=np.int8)
        assert np.array_equal(transmit(s, Biawgn(1.0), 7), transmit(s, Biawgn(1.0), 7))

    # Digests of the LLR bytes, taken before the LLR laws moved onto the
    # channel classes: the same draws in the same order, bit for bit.
    @pytest.mark.parametrize("channel, digest", [
        (Bec(0.3), "ea3ac7b6a8c5fcd3d88c5c4df92f8a47ea58194057b583077e9fdd705a2cb474"),
        (Bsc(0.1), "22593858168ac583fc403cbb2f3599e58ae88e15fc5313ee89eaa8ef0fe1caff"),
        (Biawgn(0.7), "fb45ace411f975c98165ab1811160793fefc2955a9dcc352ee9a16566304434b"),
    ], ids=["bec", "bsc", "biawgn"])
    def test_llr_digest(self, channel, digest):
        llr = transmit(np.zeros(1000, np.int8), channel, 7)
        assert hashlib.sha256(llr.tobytes()).hexdigest() == digest


class TestEbN0:
    def test_zero_db_rate_half(self):
        assert eb_n0_to_sigma2(0.0, 0.5) == pytest.approx(1.0)

    def test_quarter_rate_point(self):
        val = eb_n0_to_sigma2(-0.3, 0.25)
        assert val == pytest.approx(1.0 / (2 * 0.25 * 10 ** -0.03), rel=1e-12)
        assert val == pytest.approx(2.14305, abs=2e-4)

    def test_rate_five_sevenths_point(self):
        val = eb_n0_to_sigma2(5.2, 5 / 7)
        assert val == pytest.approx(1.0 / (2 * (5 / 7) * 10 ** 0.52), rel=1e-12)
        assert val == pytest.approx(0.21134, abs=1e-4)

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            eb_n0_to_sigma2(0.0, 1.0)

    # 10**(x/10) overflows at 1e6, underflows to 0 at -4000 and -1e6, and
    # gives an infinite sigma2 at -3100.
    @pytest.mark.parametrize("eb_n0_db", [1e6, -1e6, -4000.0, -3100.0, math.nan])
    def test_no_finite_positive_sigma2(self, eb_n0_db):
        with pytest.raises(ValueError, match="finite positive"):
            eb_n0_to_sigma2(eb_n0_db, 0.25)
