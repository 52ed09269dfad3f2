import json
import math
from dataclasses import fields

import numpy as np
import pytest

from dualct.errors import InputError
from dualct.metrics import MetricReport, psnr, report, ssim

try:
    from skimage.metrics import structural_similarity as sk_ssim
except ImportError:  # pragma: no cover
    sk_ssim = None


class TestPSNR:
    def test_known_value(self):
        ref = np.zeros((16, 16))
        ref[0, 0] = 1.0  # data range 1
        test = ref + 0.1
        # MSE = 0.01, range 1 -> 20 dB
        assert psnr(test, ref) == pytest.approx(20.0)

    def test_identical_is_inf(self, rng):
        a = rng.random((8, 8))
        assert psnr(a, a) == math.inf

    def test_explicit_range(self):
        ref = np.zeros((4, 4))
        test = np.full((4, 4), 2.0)
        assert psnr(test, ref, data_range=4.0) == pytest.approx(10 * math.log10(4.0))

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            psnr(np.zeros((4, 4)), np.zeros((5, 5)))

    def test_constant_ref_needs_range(self):
        # flat reference: default range falls back to 1
        assert np.isfinite(psnr(np.full((4, 4), 0.5), np.zeros((4, 4))))


class TestSSIM:
    def test_identical_is_one(self, rng):
        a = rng.random((16, 16))
        assert ssim(a, a) == pytest.approx(1.0)

    def test_bounded_and_sensitive(self, rng):
        a = rng.random((20, 20))
        b = a + 0.3 * rng.random((20, 20))
        val = ssim(b, a)
        assert -1.0 <= val < 1.0

    def test_too_small_rejected(self):
        with pytest.raises(InputError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    @pytest.mark.parametrize("shape", [(), (121,), (11, 11, 11)])
    def test_not_2d_rejected(self, shape):
        with pytest.raises(InputError, match="needs 2-D images"):
            ssim(np.zeros(shape), np.zeros(shape))

    @pytest.mark.skipif(sk_ssim is None, reason="scikit-image not installed")
    def test_matches_scikit_image(self, rng):
        a = rng.random((32, 32))
        b = np.clip(a + 0.1 * rng.standard_normal((32, 32)), 0, 1)
        expected = sk_ssim(b, a, data_range=1.0, gaussian_weights=True,
                           sigma=1.5, use_sample_covariance=False)
        # our implementation averages over valid-mode windows only, so
        # allow a small boundary discrepancy
        assert ssim(b, a, data_range=1.0) == pytest.approx(expected, abs=0.02)


class TestReport:
    def test_inf_serialized_as_string(self, tmp_path, rng):
        a = rng.random((16, 16))
        rep = report(a, a)
        path = tmp_path / "m.json"
        rep.write_json(path)
        with open(path) as fh:
            obj = json.load(fh)
        assert obj["psnr_db"] == "inf"
        assert obj["ssim"] == pytest.approx(1.0)

    def test_finite_roundtrip(self, tmp_path, rng):
        a = rng.random((16, 16))
        b = a + 0.05
        rep = report(b, a)
        path = tmp_path / "m.json"
        rep.write_json(path)
        with open(path) as fh:
            obj = json.load(fh)
        assert obj["psnr_db"] == pytest.approx(rep.psnr_db)
        assert set(obj) == {"psnr_db", "ssim", "data_range"}

    def test_dataclass_fields(self):
        rep = MetricReport(psnr_db=30.0, ssim=0.9, data_range=1.0)
        assert [f.name for f in fields(rep)] == ["psnr_db", "ssim", "data_range"]

