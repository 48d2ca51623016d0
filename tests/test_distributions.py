import concurrent.futures
import hashlib
import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special as sp_special

from circsym import distributions, workspace
from circsym.angles import half_tangent
from circsym.distributions import (
    Cardioid,
    MoebiusSkewed,
    SineSkewed,
    SkewedMixture,
    Uniform,
    VonMises,
    VonMisesMixture,
    WrappedCauchy,
    parse_base,
    parse_model,
)
from circsym.errors import UnsupportedBaseError
from circsym.special import bessel_ratio
from circsym.quadrature import integrate_periodic
from circsym.workspace import using

TWO_PI = 2.0 * np.pi

BASE_GRID = [
    Uniform(),
    VonMises(0.5), VonMises(1.0), VonMises(10.0),
    Cardioid(0.1), Cardioid(0.5), Cardioid(0.9),
    WrappedCauchy(0.1), WrappedCauchy(0.5), WrappedCauchy(0.9),
    VonMisesMixture(1.0), VonMisesMixture(10.0),
]


# SHA-256 of 1000 Best-Fisher draws from Philox(7), re-recorded when the
# sampler moved to two uniforms per proposal, the first also giving the sign
# of the angle, and to batches sized by its closed-form acceptance rate, and
# again when it came to the half-angle form, x = 2 arctan(omega tan(y)) in
# place of 2 arcsin(sqrt((1 - f) / 2)): that moved each angle by a few ulps
# (up to about 8e-11 near +-pi, where the arcsin was ill-conditioned) and no
# acceptance decision (``test_best_fisher_matches_reference``)
VON_MISES_DIGESTS = {
    1e-3: "ddd3ec30bfad1f999c12adfe1a8629406edf8c45bdb1fb38694d7957f7d693a4",
    1.0: "4285364c76928ccc8a6d4fa28e82440e49001ce0d5307c062c4d70691a010a56",
    700.0: "cacc580498ae8c43c7e9367e8b60a1874f9d682873aba4fcba582686b5dfdc62",
    1e8: "c0a35aed2baba4a72e9d082fdbc86a1509bf267b0175408c2a434b6e66262484",
    1e14: "5b8eb02142bfc07da5bd962090195ee48caec7f34f3c11bc3d93cda88cefd597",
}


# SHA-256 of 1000 cardioid draws from Philox(7), recorded when the sampler
# became rejection from the uniform envelope; each draw is one of its
# uniform proposals, so only an acceptance decision can move it
CARDIOID_DIGESTS = {
    0.1: "2efcc4c3752337d9b5828df5e78dabdf45d85ba33e142a658a16e363b601111b",
    0.5: "fda00becc878d682c437b4f6381ec4ff12df398c6a2f814cfde54673593de8b9",
    0.999: "96738eff55c2f76ccec036a002e8acc942d73d4632c45d1efbfd7ebde614133b",
}


# SHA-256 of 1000 draws from Philox(7) of the reflection sampler (every base
# family, k = 1, 2, 3, both signs of lam, two theta != 0) and of the two
# mixtures, recorded before the reflection flipped signs by a +-1 multiply and
# the mixture took its centres from a two-entry table; neither rewrite may
# move a draw, a signed zero included, and neither may the reflection's
# tangent taking k as its scale. The entries that draw von Mises angles (the
# vm bases, mixshift and vmmix) were re-recorded with the half-angle
# Best-Fisher draws above; the cardioid, wrapped Cauchy and uniform ones hold
REFLECTION_AND_MIXTURE_DIGESTS = {
    "sineskew(vm:1,k=1,lam=0.4,theta=0)": "13eba9e76d5d84e33ec00ebdd10fd9c7fa340cc8c852bd82757e56167ec2a9f6",
    "sineskew(vm:1,k=1,lam=-0.7,theta=0)": "58e3b8621dd2abed892e352b0f40c409f1263c9d88745f3054e640e61ea465ca",
    "sineskew(vm:1,k=2,lam=0.4,theta=0)": "c62b170e278b6b76e42d83fa30f2ce2ca27634127773019abd5bb99c3c9c7fa5",
    "sineskew(vm:1,k=2,lam=-0.7,theta=0)": "e16026f37ffc739ea6add4ee2f66bb4badc5b2b08739d11a84d42b717fcb4e7a",
    "sineskew(vm:1,k=3,lam=0.4,theta=0)": "864e38029fe68b705f79a2d6e78422a1a2f3c99f3cd2febbc3f840c3691d4c25",
    "sineskew(vm:1,k=3,lam=-0.7,theta=0)": "5c452aaaf6cf3fe5efd181c26ccb521d4041e469e6d5f129d1b81a77a2760b07",
    "sineskew(cardioid:0.5,k=1,lam=0.4,theta=0)": "792751eba1bdaada747b28c6697e7c8a1f5132fb095f3d0a9fe7ce23f590b2ed",
    "sineskew(cardioid:0.5,k=1,lam=-0.7,theta=0)": "c0495bc4a8e99144c5301fe2122a98fe5a9e21674720faf5858c60d5fe278d08",
    "sineskew(cardioid:0.5,k=2,lam=0.4,theta=0)": "f0db1f4886677a8dec0b6a761fd522e1cbf8562b9c198fdcf0a8d1105a08888a",
    "sineskew(cardioid:0.5,k=2,lam=-0.7,theta=0)": "70a9a9a76f6fbc3c5655a57058d6de9f982ebd8997fb24a27e932db961de4da7",
    "sineskew(cardioid:0.5,k=3,lam=0.4,theta=0)": "68f352d2060ebe22a9ce639d54523b47c16a34100d01341863ffe8a7b1d97873",
    "sineskew(cardioid:0.5,k=3,lam=-0.7,theta=0)": "adb33dffaf6e602d428c08d5f3d13e8ec9ddb7262d05d11669970b43669c5535",
    "sineskew(wcauchy:0.5,k=1,lam=0.4,theta=0)": "b889fab7f6121c7c468b0c8950241f4ec251171e6e052a30e018399c8c332fd2",
    "sineskew(wcauchy:0.5,k=1,lam=-0.7,theta=0)": "3f4c46cf5cd45ac393145d8c57ca1812b783099c4c8d7d15f0c1e921318186a9",
    "sineskew(wcauchy:0.5,k=2,lam=0.4,theta=0)": "57cccd77c8c8fc8862ac83eee0f836868b08f93ae406060acff98602bc79b0ac",
    "sineskew(wcauchy:0.5,k=2,lam=-0.7,theta=0)": "b1d6171d7a09aa368302df337989f474356cb8c54943bd2c675a9c1612af3e5f",
    "sineskew(wcauchy:0.5,k=3,lam=0.4,theta=0)": "229685213b80d1a305abb812014f86f752b5a1fa5e7d1b91020acd9e0c69d0f0",
    "sineskew(wcauchy:0.5,k=3,lam=-0.7,theta=0)": "687ff4c615b76d3c84bf97bf3631c041656ff002e0bfec7b789670e83e0e5518",
    "sineskew(uniform,k=1,lam=0.4,theta=0)": "77b3d19d5baa87022d78629d2960cb301d03a358c822e54340fde411a9f8d559",
    "sineskew(uniform,k=1,lam=-0.7,theta=0)": "a9d4d5b65111a7d233f349bd9f7510f6854d41b3361d01ce02933265d49c5c86",
    "sineskew(uniform,k=2,lam=0.4,theta=0)": "948b759ef488bbc09de275ba48b1d261a070b7de60f6a8ae60f2b7e55551a8ff",
    "sineskew(uniform,k=2,lam=-0.7,theta=0)": "6e98355a3d8f3b6466fe875302d978f0348d934220591f38e3a03a11220e16a9",
    "sineskew(uniform,k=3,lam=0.4,theta=0)": "0efc8acb535f6b2b1722d818607d690d7ce707944fcbfec55f0d4d56b7bc1f15",
    "sineskew(uniform,k=3,lam=-0.7,theta=0)": "25946878c76975967cdcdcf7f5563ec289dd3e07e18c57a4141274218221bbdf",
    "sineskew(vm:1,k=2,lam=0.4,theta=1.5)": "8277aa77cd24f56ffea149f5d8dd44f4fe2b73b102ebbfb94fcca1a58b6eb8f5",
    "sineskew(wcauchy:0.5,k=3,lam=-0.7,theta=-2.5)": "bfd928e289bb7b1ce6090dcb846ad3d5dee2a6a8d18a1b4abebace65420541ee",
    "mixshift(kappa=1,lam=0.4)": "4e22a2d00a3810392749117e85072c1f412a8a16c5ff31fd0691e76bd95f82d9",
    "mixshift(kappa=10,lam=-2)": "1c669b06d5d22a49ef467b8557675aceb4aaf712cf998fe91e609ce453845028",
    "vmmix:1": "073e0c1eab0ddafc24eef1c656b94574bcf5ac153f923af00f5820e553f09997",
}


# The same draws where numpy runs its AVX2 (X86_V3) or baseline float64
# kernels for tan, arctan, exp, log and arctan2: these differ from the
# AVX-512 ones in the last bits of 0.3-5% of results, which moves von Mises
# draws by up to 2 ulps and reflected wrapped Cauchy draws near 0 by up to
# 1.4e-14, and no acceptance decision. Both paths give the same bytes. The
# reflections of the cardioid and the uniform call none of these functions
# and hold on every path.
VON_MISES_DIGESTS_AVX2 = {
    1e-3: "18450f2f0fb93f1df354d213529d0d2b81d95e600b0bb8f30f2202330467e026",
    1.0: "19693a03c699e31ab777e323feb219242d84d6d2ac2961542812448bbd9556b8",
    700.0: "f9ddb1f20f339ef319fc9c244416d11f79dfd5d531b19b2b901639ee09b48092",
    1e8: "57dfd8347c24e9f12a7dbd6cc045e17b86f45bc4a9a1a64b72570747f9401514",
    1e14: "9ce3a108aac88d167a739ab9422cef804dd6bdfb3cdb375b989463f1b4988475",
}
REFLECTION_AND_MIXTURE_DIGESTS_AVX2 = {
    **REFLECTION_AND_MIXTURE_DIGESTS,
    "sineskew(vm:1,k=1,lam=0.4,theta=0)":
        "a3872e3c08ce7db4cac7f8f3e2a67299da53aa628f55e2320b37c0809c7eba72",
    "sineskew(vm:1,k=1,lam=-0.7,theta=0)":
        "1826ea8aa8db7104f06a92b8363edfe2ccf9e368e412bf86ea30d6d685a43d4a",
    "sineskew(vm:1,k=2,lam=0.4,theta=0)":
        "62267d0bb1fc26e725de1a0a1f09a832f8cc77d2457db28dd6b7ca5485758aa6",
    "sineskew(vm:1,k=2,lam=-0.7,theta=0)":
        "dc856a90fc770c962b6310310a59fc9f07040ff5c352c4e40be2d814d9dc0829",
    "sineskew(vm:1,k=3,lam=0.4,theta=0)":
        "b2340429a669f5588f0820fc7b76c3bdc42a9acd888c30889d7ef93e2f9a2d1b",
    "sineskew(vm:1,k=3,lam=-0.7,theta=0)":
        "efa1639f1216329100c1019a558c75b6bd82f0505354569af1e823d4a1c47e6b",
    "sineskew(wcauchy:0.5,k=1,lam=0.4,theta=0)":
        "687dd33f6dfeb0f99bf7c4236b816be18befc223fbfc8948bc9484d579f026c2",
    "sineskew(wcauchy:0.5,k=1,lam=-0.7,theta=0)":
        "85b31f6ed1d552910ebc68503eea0c483afe46d1d16335892cdc6ef4e3e67228",
    "sineskew(wcauchy:0.5,k=2,lam=0.4,theta=0)":
        "638de344758b34a227e2c2d80f60206711772739910bb580237acceba3f5a9ed",
    "sineskew(wcauchy:0.5,k=2,lam=-0.7,theta=0)":
        "b77b2545d4e426fccd1d0b9c9f5e2407bcf8fccdbef3429d4eb9f63af0ea36ef",
    "sineskew(wcauchy:0.5,k=3,lam=0.4,theta=0)":
        "c827673f3096b85d4017dc2802b346369b10123908663adf6793aff09583affe",
    "sineskew(wcauchy:0.5,k=3,lam=-0.7,theta=0)":
        "312c06ac5d2797cac13c20cb20b45477b9598675560149361248cde876d3d60d",
    "sineskew(vm:1,k=2,lam=0.4,theta=1.5)":
        "44cbdeac64528514f546ca540ee744a302d5a5522e83974fb1a1994929e555ff",
    "sineskew(wcauchy:0.5,k=3,lam=-0.7,theta=-2.5)":
        "684b6983bf2f8d502ff607ceca2eac2f6341b40e5d130bf10d9667ca1743693d",
    "mixshift(kappa=1,lam=0.4)":
        "2cf59fafaf5ade7b700e7af2e1a3c174dbaccea200d3e756316ebb662e83d0da",
    "mixshift(kappa=10,lam=-2)":
        "586e3b9aabdb186217d95f2b1e1487bb0bf6b45bc57a71188b66a51f00adf29c",
    "vmmix:1":
        "d7642efe40b49f0602d5faf3237a88b38142b2686b3adff11b9d8347c7aed91a",
}

# numpy's float64 dispatch targets for tan, arctan, exp, log and arctan2, as
# ``_simd_path`` reads them -> the digests of the draws on that path
SAMPLER_DIGESTS = {
    "tan:X86_V4 arctan:X86_V4 exp:X86_V4 log:X86_V4 arctan2:X86_V4":
        (VON_MISES_DIGESTS, REFLECTION_AND_MIXTURE_DIGESTS),
    "tan:baseline(X86_V2) arctan:baseline(X86_V2) exp:X86_V3 log:X86_V3 arctan2:baseline(X86_V2)":
        (VON_MISES_DIGESTS_AVX2, REFLECTION_AND_MIXTURE_DIGESTS_AVX2),
    "tan:baseline(X86_V2) arctan:baseline(X86_V2) exp:baseline(X86_V2) log:baseline(X86_V2) arctan2:baseline(X86_V2)":
        (VON_MISES_DIGESTS_AVX2, REFLECTION_AND_MIXTURE_DIGESTS_AVX2),
}


def _simd_path():
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy before 2.0
        return f"numpy {np.__version__} without opt_func_info"
    info = opt_func_info(func_name="^(tan|arctan|exp|log|arctan2)$", signature="float64")
    return " ".join(f"{name}:{next(iter(info[name].values()))['current']}"
                    for name in ("tan", "arctan", "exp", "log", "arctan2"))


def _path_digests():
    """(von Mises, reflection and mixture) digests on numpy's dispatch path."""
    path = _simd_path()
    if path not in SAMPLER_DIGESTS:
        pytest.fail(f"no sampler digests recorded for numpy dispatch path {path!r}")
    return SAMPLER_DIGESTS[path]


def _in_a_fresh_thread(run):
    """``run()`` in a new thread, which starts without kept scratch arrays."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(run).result()


def _grid(n=1024):
    return np.linspace(-np.pi, np.pi, n, endpoint=False)


class TestPdfValues:
    def test_cardioid_at_mode(self):
        assert Cardioid(0.5).pdf(0.0) == pytest.approx(1.5 / TWO_PI, rel=1e-15, abs=0.0)

    def test_von_mises_at_mode(self):
        # exp(1) / (2*pi*I0(1)), pinned from an independent Bessel evaluation
        assert VonMises(1.0).pdf(0.0) == pytest.approx(0.34171048862346315, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kappa", np.geomspace(1e-3, 1e8, 45))
    def test_von_mises_matches_scipy_at_any_kappa(self, kappa):
        from scipy import special as sp_special
        from scipy import stats as sp_stats

        tail = np.geomspace(1e-9, 1.0, 30)
        x = np.concatenate((_grid(101), tail, -tail, [0.0]))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = VonMises(kappa).pdf(x)
        expected = sp_stats.vonmises.pdf(x, kappa)
        # 1e-13 relative, widened by the condition number of exp at the
        # exponent kappa*(cos x - 1): a rounding of that exponent alone
        # moves the density by |exponent| ulps in the far tail
        exponent = np.abs(kappa * sp_special.cosm1(x))
        tolerance = (1e-13 + 4.0 * np.finfo(float).eps * exponent) * expected
        assert np.all(np.abs(got - expected) <= tolerance)
        assert got[-1] == pytest.approx(expected[-1], rel=1e-13, abs=0.0)  # the mode

    def test_large_kappa_densities_are_finite(self):
        x = _grid(257)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for model in (VonMises(800.0), VonMisesMixture(800.0),
                          SkewedMixture(800.0, 0.1)):
                values = model.pdf(x)
                assert np.all(np.isfinite(values)) and values.max() > 1.0

    def test_wrapped_cauchy_closed_form(self):
        rho = 0.5
        x = 1.3
        expected = (1 - rho**2) / (TWO_PI * (1 + rho**2 - 2 * rho * np.cos(x)))
        assert WrappedCauchy(rho).pdf(x) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("bits", [20, 27, 34])
    def test_wrapped_cauchy_mode_as_rho_nears_one(self, bits):
        rho = 1.0 - 2.0**-bits  # 1 - rho is exact
        model = WrappedCauchy(rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mode = model.pdf(0.0)
            scores = model.score(np.array([0.0, 2.0**-bits, 1.0]))
        assert mode == pytest.approx((1.0 + rho) / (TWO_PI * (1.0 - rho)), rel=1e-14, abs=0)
        # at x = 1 - rho the score is 2 rho / ((1 + rho) x) up to O(x^2)
        assert scores[1] == pytest.approx(2.0 * rho / ((1.0 + rho) * 2.0**-bits),
                                          rel=1e-11, abs=0)
        assert scores[0] == 0.0 and np.isfinite(scores[2])

    def test_skewed_density_at_center_equals_base_mode(self):
        base = VonMises(2.0)
        theta = 0.9
        model = SineSkewed(base, 0.7, k=3, theta=theta)
        assert model.pdf(theta) == pytest.approx(base.pdf(0.0), rel=1e-15, abs=0.0)

    def test_skewed_uniform_is_cardioid_rotated(self):
        # (1 + 0.5 sin(x + pi/2)) / (2 pi) is the cardioid with ell = 0.5
        model = SineSkewed(Uniform(), 0.5, k=1, theta=-np.pi / 2)
        x = _grid(512)
        assert_allclose(model.pdf(x), Cardioid(0.5).pdf(x), rtol=1e-14)

    def test_zero_skewness_reduces_to_shifted_base(self):
        base = WrappedCauchy(0.3)
        theta = -2.0
        model = SineSkewed(base, 0.0, k=2, theta=theta)
        x = _grid(256)
        assert_allclose(model.pdf(x), base.pdf(x - theta), rtol=1e-14)

    def test_mixture_is_equal_weight_sum(self):
        mix = VonMisesMixture(1.0)
        comp = VonMises(1.0)
        x = _grid(128)
        expected = 0.5 * (comp.pdf(x + np.pi / 4) + comp.pdf(x - np.pi / 4))
        assert_allclose(mix.pdf(x), expected, rtol=1e-14)

    def test_moebius_omega(self):
        model = MoebiusSkewed(VonMises(1.0), 0.1, 0.5)
        assert model.omega == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0.0)


class TestNormalization:
    @pytest.mark.parametrize("base", BASE_GRID, ids=lambda b: b.label)
    def test_base_densities(self, base):
        assert integrate_periodic(base.pdf) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("lam", [-0.9, -0.5, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sine_skewed(self, lam, k):
        for base in (VonMises(1.0), Cardioid(0.5), WrappedCauchy(0.5)):
            model = SineSkewed(base, lam, k=k, theta=0.4)
            assert integrate_periodic(model.pdf) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.2])
    def test_moebius(self, lam):
        model = MoebiusSkewed(VonMises(1.0), lam, 0.5)
        assert integrate_periodic(model.pdf) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("lam", [0.0, 0.4, 1.2])
    def test_shifted_mixture(self, lam):
        model = SkewedMixture(10.0, lam)
        assert integrate_periodic(model.pdf) == pytest.approx(1.0, abs=1e-8)


class TestSymmetries:
    def test_base_reflection_symmetry(self):
        x = _grid(512)
        for base in BASE_GRID:
            assert_allclose(base.pdf(-x), base.pdf(x), rtol=1e-13)

    def test_skew_reflection_identity(self):
        # reflecting the argument about theta flips the sign of lambda
        x = np.linspace(0.0, np.pi, 1024, endpoint=False)
        theta = 0.8
        for base in (VonMises(1.0), Cardioid(0.5)):
            for k in (1, 2, 3):
                left = SineSkewed(base, 0.6, k=k, theta=theta).pdf(theta - x)
                right = SineSkewed(base, -0.6, k=k, theta=theta).pdf(theta + x)
                assert_allclose(left, right, rtol=1e-13)

    def test_endpoint_continuity(self):
        eps = 1e-9
        for model in (
            SineSkewed(VonMises(1.0), 0.6, k=2, theta=0.3),
            MoebiusSkewed(VonMises(1.0), 0.2, 0.5),
            SkewedMixture(10.0, 0.4),
        ):
            low = model.pdf(-np.pi + eps)
            high = model.pdf(np.pi - eps)
            assert low == pytest.approx(high, abs=1e-7)

    def test_moebius_zero_shift_is_symmetric(self):
        model = MoebiusSkewed(VonMises(1.0), 0.0, 0.5)
        x = _grid(256)
        assert_allclose(model.pdf(-x), model.pdf(x), rtol=1e-12)

    def test_mixture_zero_shift_is_symmetric(self):
        model = SkewedMixture(2.0, 0.0)
        x = _grid(256)
        assert_allclose(model.pdf(-x), model.pdf(x), rtol=1e-12)


def _moment_gap(model, rng, n=100_000, orders=(1, 2, 3, 4)):
    draws = model.sample(rng, n)
    assert draws.shape == (n,)
    assert np.all((draws >= -np.pi) & (draws < np.pi))
    worst = 0.0
    for m in orders:
        for trig in (np.sin, np.cos):
            empirical = float(np.mean(trig(m * draws)))
            exact = integrate_periodic(lambda x: trig(m * x) * model.pdf(x))
            worst = max(worst, abs(empirical - exact))
    return worst


class TestSamplers:
    @pytest.mark.parametrize(
        "model",
        [
            Uniform(), VonMises(1.0), VonMises(10.0), Cardioid(0.5),
            WrappedCauchy(0.5), VonMisesMixture(1.0),
            SineSkewed(VonMises(1.0), 0.6, k=2, theta=0.4),
            SineSkewed(Cardioid(0.5), -0.7, k=1),
            MoebiusSkewed(VonMises(1.0), 0.2, 0.5),
            SkewedMixture(10.0, 0.4),
        ],
        ids=lambda m: m.label,
    )
    def test_sample_moments_match_quadrature(self, model):
        rng = np.random.default_rng(20_08_08)
        assert _moment_gap(model, rng) < 0.015

    @pytest.mark.parametrize("n", [1, 2, 1000])
    @pytest.mark.parametrize("model", [
        *BASE_GRID, VonMises(1e-10), VonMises(1e16), Cardioid(1 - 2**-40),
        SineSkewed(VonMises(1.0), 0.4, k=2),
        SineSkewed(WrappedCauchy(0.9), -0.3, k=3, theta=2.5),
        SineSkewed(Cardioid(0.5), 0.5, theta=-1.0),
        MoebiusSkewed(WrappedCauchy(0.5), 0.3, 0.5),
        MoebiusSkewed(VonMisesMixture(1.0), -0.7, 0.2),
        SkewedMixture(1.0, 0.4), SkewedMixture(10.0, -2.0),
    ], ids=lambda m: m.label)
    def test_sample_on_stale_scratch_matches_a_fresh_call(self, model, n):
        rng, fresh = (np.random.Generator(np.random.Philox(21)) for _ in range(2))

        def sample_on_stale_scratch():
            with using():  # leave stale values in the scratch arrays
                model.sample(np.random.default_rng(1), 2 * n)
            for array in workspace._store.arrays.values():
                array.fill(True if array.dtype == bool else np.nan)
            with using():
                return model.sample(rng, n)

        draws = _in_a_fresh_thread(sample_on_stale_scratch)
        assert draws.tobytes() == model.sample(fresh, n).tobytes()
        assert rng.random() == fresh.random()

    def test_wrapped_cauchy_first_cosine_moment(self):
        # E[cos X] = rho for the wrapped Cauchy
        rng = np.random.default_rng(5)
        draws = WrappedCauchy(0.5).sample(rng, 200_000)
        assert np.mean(np.cos(draws)) == pytest.approx(0.5, abs=0.01)

    def test_concentrated_von_mises_tail(self):
        rng = np.random.default_rng(6)
        draws = VonMises(10.0).sample(rng, 100_000)
        assert np.mean(np.abs(draws) > np.pi / 2) < 0.001

    def test_sine_skew_first_sine_moment(self):
        # quadrature oracle for E[sin X] under the 1-sine-skewed VM(1), lam 0.6
        rng = np.random.default_rng(7)
        draws = SineSkewed(VonMises(1.0), 0.6, k=1).sample(rng, 100_000)
        assert np.mean(np.sin(draws)) == pytest.approx(0.26783397953792065, abs=0.01)

    def test_skewed_uniform_matches_cardioid_sampler(self):
        # same distribution reached through two unrelated samplers
        rng = np.random.default_rng(8)
        a = SineSkewed(Uniform(), 0.5, k=1, theta=-np.pi / 2).sample(rng, 150_000)
        b = Cardioid(0.5).sample(rng, 150_000)
        for m in (1, 2):
            assert np.mean(np.cos(m * a)) == pytest.approx(np.mean(np.cos(m * b)), abs=0.012)
            assert np.mean(np.sin(m * a)) == pytest.approx(np.mean(np.sin(m * b)), abs=0.012)

    def test_reproducible_for_equal_seeds(self):
        model = SineSkewed(VonMises(1.0), 0.3, k=2)
        a = model.sample(np.random.default_rng(42), 64)
        b = model.sample(np.random.default_rng(42), 64)
        assert_allclose(a, b, rtol=0.0, atol=0.0)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            VonMises(1.0).sample(np.random.default_rng(0), 0)

    @pytest.mark.parametrize("kappa", sorted(VON_MISES_DIGESTS))
    def test_von_mises_draws_pinned(self, kappa):
        draws = VonMises(kappa).sample(np.random.Generator(np.random.Philox(7)), 1000)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == _path_digests()[0][kappa]

    @pytest.mark.parametrize("ell", sorted(CARDIOID_DIGESTS))
    def test_cardioid_draws_pinned(self, ell):
        draws = Cardioid(ell).sample(np.random.Generator(np.random.Philox(7)), 1000)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == CARDIOID_DIGESTS[ell]

    @pytest.mark.parametrize("label", list(REFLECTION_AND_MIXTURE_DIGESTS))
    def test_reflection_and_mixture_draws_pinned(self, label):
        model = parse_model(label)
        assert model.label == label
        draws = model.sample(np.random.Generator(np.random.Philox(7)), 1000)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == _path_digests()[1][label]

    @pytest.mark.parametrize("kappa", [1e-3, 1.0, 10.0, 700.0, 1e8, 1e14])
    def test_best_fisher_matches_reference(self, kappa):
        """The same two uniform batches through the half-angle form in long
        double: the same acceptance decisions, angles within a few ulps.

        The proposal y = pi (u1 - 1/2) is the sampler's own double: near
        y = +-pi/2 the angle's slope in y reaches 2 / omega, so a y formed
        in long double would move the angle by far more than its rounding."""
        proposals = 200_000
        model = VonMises(kappa)
        c0, omega, _ = model._envelope
        x = model._best_fisher(np.random.default_rng(15), proposals, c0, omega).copy()
        rng = np.random.default_rng(15)
        u1, u2 = rng.random(proposals), rng.random(proposals)
        k = np.longdouble(kappa)
        q = np.sqrt(1 + 4 * k * k)
        c0 = np.longdouble(0.5) + np.longdouble(0.5) / (q + 2 * k)
        t = np.sqrt(c0 / (2 * k + c0)) * np.tan((np.pi * (u1 - 0.5)).astype(np.longdouble))
        v = t * t
        c = c0 + 2 * k * v / (1 + v)
        accept = u2 <= c * np.exp(1 - c)
        # equal counts and angles close entry by entry: the same proposals kept
        assert x.size == np.count_nonzero(accept)
        reference = 2 * np.arctan(t[accept])
        assert np.all(np.abs(x - reference) <= 4 * np.spacing(np.abs(x)))

    def test_best_fisher_angles_are_not_quantized(self):
        # kappa = 1e14 is below the normal limit's threshold: Best-Fisher draws
        kappa = 1e14
        draws = VonMises(kappa).sample(np.random.default_rng(10), 100_000)
        assert np.count_nonzero(draws == 0.0) == 0
        assert np.unique(np.abs(draws)).size == draws.size
        assert np.std(draws) * math.sqrt(kappa) == pytest.approx(1.0, abs=0.03)

    @pytest.mark.parametrize("model", [
        SineSkewed(WrappedCauchy(0.5), 0.4, k=2, theta=1.0),
        MoebiusSkewed(VonMises(1.0), 0.3, 0.5),
        SkewedMixture(10.0, 0.4),
    ], ids=lambda model: model._form)
    def test_skewed_draws_are_wrapped_once(self, monkeypatch, model):
        calls = []
        real = distributions._wrap_in_place

        def counting(x):
            calls.append(1)
            return real(x)

        monkeypatch.setattr(distributions, "_wrap_in_place", counting)
        draws = model.sample(np.random.default_rng(11), 500)
        assert len(calls) == 1
        assert np.all((draws >= -np.pi) & (draws < np.pi))

    @pytest.mark.parametrize("theta", [0.0, -0.0], ids=["plus_zero", "minus_zero"])
    def test_reflection_boundary_and_signed_zero(self, theta):
        class Stub:
            """Hands out the base uniforms, then the reflection uniforms."""

            def __init__(self, *batches):
                self.batches = list(batches)

            def random(self, out):
                out[...] = self.batches.pop(0)

        above = np.nextafter(0.5, 1.0)
        # uniform 0.5 maps to 0.5 * 2 pi - pi = 0.0 exactly, 0.25 to -pi/2
        base = np.array([0.5, 0.5, 0.25, 0.25])
        coins = np.array([0.5, above, 0.5, above])
        out = np.empty(4)
        # lam = 0 puts the threshold at exactly 1/2: u = 1/2 keeps y, the
        # next double above it flips y
        model = SineSkewed(Uniform(), 0.0, theta=theta)
        model._apply(model._inputs(Stub(base, coins), out.size), out)
        y = base * TWO_PI - np.pi
        expected = np.where(coins > 0.5, np.negative(y), y) + theta
        assert out.tobytes() == expected.tobytes()
        # the flipped zero is -0.0, which adding theta = -0.0 keeps visible
        assert list(np.signbit(out[:2])) == [False, bool(np.signbit(theta))]
        assert list(out[2:]) == [-np.pi / 2, np.pi / 2]

    @pytest.mark.parametrize("lam", [0.0, -0.0], ids=["plus_zero", "minus_zero"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reflection_at_lam_zero_takes_no_tangent(self, monkeypatch, lam, k):
        """At lam = 0 the keep threshold 1/2 + lam t w is 1/2 exactly, so
        skipping the tangent leaves every bit, signed zeros included."""

        class Fixed:
            """A base whose draws are given."""

            def __init__(self, values):
                self.values = values

            def _apply(self, rng, out):
                out[...] = self.values

        class Stub:
            def __init__(self, coins):
                self.coins = coins

            def random(self, out):
                out[...] = self.coins

        y = np.repeat([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, np.pi / 2, -np.pi,
                       np.nextafter(np.pi, 0.0), 3.0], 5)
        u = np.tile([0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0), 0.0,
                     np.nextafter(1.0, 0.0)], 10)
        t, w = half_tangent(y, np.empty_like(y), np.empty_like(y), k)
        s = np.copysign(1.0, 0.5 + lam * (t * w) - u)

        def no_tangent(*args):
            raise AssertionError("the reflection took a tangent at lam = 0")

        monkeypatch.setattr(distributions, "half_tangent", no_tangent)
        for theta in (0.0, -0.0, 1.0):
            out = np.empty_like(y)
            model = SineSkewed(Fixed(y), lam, k=k, theta=theta)
            model._apply(model._inputs(Stub(u), out.size), out)
            assert out.tobytes() == (y * s + theta).tobytes()

    @pytest.mark.parametrize("kappa", [1e15, 1e16, 1e17, 1e20, 1e300])
    def test_huge_kappa_von_mises_is_prompt_and_normal(self, kappa):
        start = time.perf_counter()
        draws = VonMises(kappa).sample(np.random.default_rng(9), 20_000)
        assert time.perf_counter() - start < 1.0
        assert np.all(np.isfinite(draws))
        # N(0, 1/kappa) limit: unit spread after scaling, no pile-up at 0
        assert np.std(draws) * math.sqrt(kappa) == pytest.approx(1.0, abs=0.03)
        assert np.count_nonzero(draws == 0.0) == 0


    @pytest.mark.parametrize("kappa", [1e-3, 0.1, 1.0, 10.0, 700.0, 1e8, 1e14])
    def test_best_fisher_acceptance_rate_is_closed_form(self, kappa):
        model = VonMises(kappa)
        c0, omega, rate = model._envelope
        proposals = 400_000
        kept = model._best_fisher(np.random.default_rng(12), proposals, c0, omega).size
        band = 5.0 * math.sqrt(rate * (1.0 - rate) / proposals) + 1.0 / proposals
        assert abs(kept / proposals - rate) <= band

    def test_best_fisher_holds_three_float_arrays(self):
        # the tangent, v = t^2 turning into c and then u2, and the bound
        def kept_dtypes():
            with using():
                VonMises(1.0).sample(np.random.default_rng(14), 1000)
            return [dtype for dtype, _ in workspace._store.arrays]

        dtypes = _in_a_fresh_thread(kept_dtypes)
        assert dtypes.count(np.dtype(np.float64)) == 3
        assert dtypes.count(np.dtype(bool)) == 1

    @pytest.mark.parametrize("ell", [1e-6, 0.1, 0.5, 0.99, 1 - 2**-40])
    def test_cardioid_acceptance_rate_is_closed_form(self, ell):
        rate = 1.0 / (1.0 + ell)
        proposals = 400_000
        kept = Cardioid(ell)._accepted(np.random.default_rng(12), proposals).size
        band = 5.0 * math.sqrt(rate * (1.0 - rate) / proposals) + 1.0 / proposals
        assert abs(kept / proposals - rate) <= band

    @pytest.mark.parametrize("kappa", [1e-8, 1e-3, 0.5, 1.0, 10.0, 700.0, 1e8])
    def test_von_mises_draws_follow_the_density(self, kappa):
        model = VonMises(kappa)
        draws = np.sort(model.sample(np.random.default_rng(13), 200_000))
        n = draws.size
        # Kolmogorov-Smirnov distance at 255 order statistics, against
        # P(X <= x) = 1/2 +- (mass between 0 and |x|) from the quadrature
        # oracle; 1.95 / sqrt(n) is the 0.001 critical value of the full sup
        index = np.arange(n // 256, n, n // 256)[:255]
        cdf = np.array([_symmetric_cdf(model, x) for x in draws[index]])
        distance = np.max(np.maximum(np.abs((index + 1) / n - cdf), np.abs(index / n - cdf)))
        assert distance < 1.95 / math.sqrt(n)

    @pytest.mark.parametrize("kappa", [1e-3, 0.5, 1.0, 10.0, 700.0, 1e8])
    def test_von_mises_signs_are_fair_and_draws_canonical(self, kappa):
        n = 200_000
        draws = VonMises(kappa).sample(np.random.default_rng(14), n)
        # the sign comes from the same uniform as the proposal
        assert abs(np.count_nonzero(draws > 0.0) / n - 0.5) <= 5.0 * 0.5 / math.sqrt(n)
        assert np.all(draws < np.pi) and np.all(draws >= -np.pi)


def _symmetric_cdf(model, x):
    """P(X <= x) of a base symmetric about 0, from its density by the
    quadrature oracle on [0, |x|] mapped onto one period."""
    width = abs(x)
    mass = integrate_periodic(lambda s: model.pdf(width * (s + np.pi) / TWO_PI) * width / TWO_PI)
    return 0.5 + math.copysign(mass, x)


def _closed_form_cdf(model, x):
    """P(X <= x) on [-pi, pi) of a cardioid, a wrapped Cauchy, a 1-sine-
    skewed cardioid about 0, or a Moebius form with lam = 0 of either base."""
    if isinstance(model, Cardioid):
        return (x + np.pi + model.ell * np.sin(x)) / TWO_PI
    if isinstance(model, WrappedCauchy):
        ratio = (1.0 + model.rho) / (1.0 - model.rho)
        return 0.5 + np.arctan(ratio * np.tan(0.5 * x)) / np.pi
    if isinstance(model, SineSkewed):
        # integral of (1 + ell cos s)(1 + lam sin s) / (2 pi) from -pi to x
        ell, lam = model.base.ell, model.lam
        return (x + np.pi + ell * np.sin(x) - lam * (1.0 + np.cos(x))
                + 0.5 * ell * lam * np.sin(x) ** 2) / TWO_PI
    # the Moebius map is increasing, so F(x) is the base's CDF at its inverse
    return _closed_form_cdf(model.base, 2.0 * np.arctan(np.tan(0.5 * x) / model.omega))


class TestClosedFormCdfs:
    """Draws against closed-form CDFs at the edges of the parameter space,
    where the quadrature oracle cannot integrate the spikes."""

    @pytest.mark.parametrize("model", [
        *(Cardioid(ell) for ell in (1e-6, 0.5, 0.99, 1 - 2**-40)),
        *(WrappedCauchy(rho) for rho in (1e-6, 0.5, 0.99, 1 - 1e-9)),
        SineSkewed(Cardioid(1e-6), 0.5),
        SineSkewed(Cardioid(0.5), -0.5),
        SineSkewed(Cardioid(1 - 2**-40), 1 - 1e-9),
        SineSkewed(Cardioid(1 - 2**-40), -(1 - 1e-9)),
        *(MoebiusSkewed(base, 0.0, r) for base in (WrappedCauchy(0.5), Cardioid(0.5))
          for r in (1e-6, 0.9999999999)),
    ], ids=lambda model: model.label)
    def test_draws_follow_the_closed_form_cdf(self, model):
        draws = np.sort(model.sample(np.random.default_rng(15), 200_000))
        n = draws.size
        # Kolmogorov-Smirnov distance over every order statistic; 1.95 / sqrt(n)
        # is its 0.001 critical value
        cdf = _closed_form_cdf(model, draws)
        rank = np.arange(1, n + 1)
        distance = max(np.max(rank / n - cdf), np.max(cdf - (rank - 1) / n))
        assert distance < 1.95 / math.sqrt(n)


class TestValidation:
    def test_parameter_ranges(self):
        with pytest.raises(ValueError, match="kappa"):
            VonMises(0.0)
        with pytest.raises(ValueError, match="ell"):
            Cardioid(1.0)
        with pytest.raises(ValueError, match="rho"):
            WrappedCauchy(0.0)
        with pytest.raises(ValueError, match="lam"):
            SineSkewed(VonMises(1.0), 1.0)
        with pytest.raises(ValueError, match="frequency"):
            SineSkewed(VonMises(1.0), 0.5, k=0)
        with pytest.raises(ValueError, match="r must"):
            MoebiusSkewed(VonMises(1.0), 0.1, 1.0)

    @pytest.mark.parametrize("make", [
        lambda: VonMises(np.inf),
        lambda: VonMises(np.nan),
        lambda: VonMisesMixture(np.inf),
        lambda: SkewedMixture(np.inf, 0.4),
        lambda: SkewedMixture(10.0, np.inf),
        lambda: SkewedMixture(10.0, np.nan),
        lambda: MoebiusSkewed(VonMises(1.0), np.nan, 0.5),
        lambda: MoebiusSkewed(VonMises(1.0), -np.inf, 0.5),
    ])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_mixture_has_no_location_score(self):
        with pytest.raises(UnsupportedBaseError):
            VonMisesMixture(1.0).score(0.3)

    def test_family_flags(self):
        assert Uniform().in_family
        assert VonMises(1.0).in_family
        assert Cardioid(0.5).in_family
        assert WrappedCauchy(0.5).in_family
        assert not VonMisesMixture(1.0).in_family


class TestParseBase:
    @pytest.mark.parametrize(
        "base",
        [Uniform(), VonMises(2.5), Cardioid(0.25), WrappedCauchy(0.75), VonMisesMixture(3.0)],
        ids=lambda b: b.label,
    )
    def test_label_round_trip(self, base):
        assert parse_base(base.label) == base

    @pytest.mark.parametrize("bad", ["vm", "vm:", "vm:abc", "gauss:1", "",
                                     "sineskew(vm:1,lam=0.1)", "mixshift(kappa=1,lam=0)"])
    def test_bad_labels_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_base(bad)


class TestParseModel:
    def test_labels_that_read_back_with_g_are_unchanged(self):
        assert SineSkewed(VonMises(1.0), 0.4, k=2).label == "sineskew(vm:1,k=2,lam=0.4,theta=0)"
        assert MoebiusSkewed(VonMises(10.0), 0.02, 0.5).label == "moebius(vm:10,r=0.5,lam=0.02)"
        assert SkewedMixture(1.0, 1.2).label == "mixshift(kappa=1,lam=1.2)"
        assert VonMises(1e300).label == "vm:1e+300"

    def test_lossy_g_labels_use_repr(self):
        model = MoebiusSkewed(VonMises(1.0), 0.2 / 3, 0.5)
        assert model.label == "moebius(vm:1,r=0.5,lam=0.06666666666666667)"
        assert parse_model(model.label) == model
        # two bases that print alike with :g no longer share a label
        assert VonMises(1.0).label != VonMises(1.0000001).label

    def test_optional_keywords_default(self):
        assert parse_model("sineskew(vm:1,lam=0.3)") == SineSkewed(VonMises(1.0), 0.3)
        assert parse_model(" sineskew( wcauchy:0.5 , k = 2.0 , lam=-0.4 ) ").k == 2

    @pytest.mark.parametrize("bad, message", [
        ("sineskew(vm:1,lam=0.3,foo=1)", "unknown keyword 'foo'"),
        ("sineskew(vm:1,lam=0.3,lam=0.2)", "repeated"),
        ("sineskew(vm:1,k=2)", "missing keyword 'lam'"),
        ("moebius(vm:1,lam=0.1)", "missing keyword 'r'"),
        ("sineskew(vm:1,lam=0.3,k=2.5)", "frequency k must be a positive integer"),
        ("sineskew(vm:1,lam=0.3,k=inf)", "frequency k must be a positive integer"),
        ("sineskew(lam=0.3)", "one base density, got 0"),
        ("sineskew(vm:1,vm:2,lam=0.3)", "one base density, got 2"),
        ("mixshift(vm:1,kappa=1,lam=0.1)", "keywords only, got 1"),
        ("sineskew(vm:1,,lam=0.3)", "empty argument"),
        ("sineskew(vm:1,lam=abc)", "bad number 'abc'"),
        ("sineskew(vm:1,lam=0.3,theta=nan)", "finite angle"),
        ("sineskew(sineskew(vm:1,lam=0.1),lam=0.1)", "not a nested model"),
        ("moebius(mixshift(kappa=1,lam=0),r=0.5,lam=0)", "not a nested model"),
        ("sineskew(uniform,lam=0.1)x", "closing parenthesis"),
        ("sineskew(vm:1,lam=0.3", "closing parenthesis"),
        ("banana(vm:1,lam=0.1)", "unknown model family 'banana'"),
        ("vm:abc", "bad number 'abc'"),
        ("warp:1", "unknown model 'warp:1'"),
    ])
    def test_strict(self, bad, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_model(bad)


def _gap_cases():
    """(kappa, a, b) with b - a even and b <= 400, kappa log-uniform in [1, 1e6]."""
    kappas = st.floats(min_value=0.0, max_value=6.0).map(lambda e: 10.0**e)
    return st.tuples(kappas, st.integers(0, 398), st.integers(1, 200)).map(
        lambda t: (t[0], t[1], t[1] + 2 * min(t[2], (400 - t[1]) // 2)))


def _scipy_gap(kappa, a, b):
    """rho_a - rho_b as SciPy's sum of 2j ive(j) / ive(0) / kappa."""
    j = np.arange(a + 1, b, 2)
    return math.fsum(2.0 * j * sp_special.ive(j, kappa) / sp_special.ive(0, kappa) / kappa)


class TestVonMisesMomentGap:
    """The gap rho_a - rho_b as the positive-term sum, against SciPy."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(_gap_cases())
    def test_matches_scipy(self, case):
        kappa, a, b = case
        expected = _scipy_gap(kappa, a, b)
        # a subnormal moment keeps no relative precision, on either side
        assume(expected > 1e-290)
        # SciPy's own ive(170, 10) / ive(0, 10) is 1.3e-13 off the 40-digit
        # value (ours 5e-16), so at orders far above kappa 1e-12 is its bound
        assert VonMises(kappa).cos_moment_gap(a, b) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kappa, k", [
        (kappa, k) for kappa in (1.0, 3.0, 50.0, 700.0, 1e4) for k in (1, 3, 100, 2000)])
    def test_equals_the_full_sum(self, kappa, k):
        base = VonMises(kappa)
        for a, b in ((0, 2 * k), (k - 1, k + 1), (1, 2 * k + 1)):
            assert base.cos_moment_gap(a, b) == \
                pytest.approx(_scipy_gap(kappa, a, b), rel=1e-12, abs=0.0), (a, b)

    def test_stops_at_the_first_zero_moment(self, monkeypatch):
        read = []
        moment_sum = distributions.bessel_ratio_sum

        def counted(orders, kappa, weight):
            return moment_sum(orders, kappa, lambda j: read.append(j) or weight(j))

        monkeypatch.setattr(distributions, "bessel_ratio_sum", counted)
        base = VonMises(1.0)
        first_zero = next(m for m in range(1, 1000, 2) if bessel_ratio(m, 1.0) == 0.0)
        gap = base.cos_moment_gap(0, 2 * 10**7)
        # the pass reads past the first zero moment by at most its last doubling
        assert 0 < max(read) < 2 * first_zero
        # and the orders past it change no bit
        assert gap == base.cos_moment_gap(0, first_zero + 1)

    @pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8])
    def test_cost_does_not_grow_with_the_last_order(self, kappa):
        # one pass reaches only the order where the moments underflow
        start = time.perf_counter()
        assert VonMises(kappa).cos_moment_gap(0, 2 * 10**7) == pytest.approx(1.0, rel=1e-15)
        assert time.perf_counter() - start < 5.0
