"""Golden outputs of the triangular Sylvester solve and of gemm in every format.

Both kernels are sequential recurrences: `solve_sylv_tri` substitutes
entry by entry and `gemm` accumulates its k products in ascending order.
Each case pins the sha256 of the result, or the class and position of the
error it raised, and the flops it charged, so a change in how the
recurrences are batched has to reproduce them bit for bit.  The inputs
hold signed zeros and infinities; the right-hand sides are taken raw
(unrounded) or rounded into the format.  Re-record a value only when a
change alters results on purpose, and say so in that change.
"""

import hashlib
import warnings

import numpy as np
import pytest

from mpsylv.errors import MpsylvError, SingularEquationError
from mpsylv.linalg import gemm
from mpsylv.precision import FlopCounter, PrecisionContext, _round_complex_array, parse_format
from mpsylv.sylvester import solve_sylv_tri

FORMATS = ("bfloat16", "binary16", "tf32", "b24", "binary32", "40:11", "binary64")


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.complex128).tobytes()).hexdigest()


def _complex(seed, m, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _triangular(seed, n, lower=False):
    T = np.triu(_complex(seed, n, n)) + 2.0 * np.eye(n)
    return T.T.copy() if lower else T


def _sylv(T_A, T_B, C, rounded):
    def run(ctx):
        fmt = ctx.format
        r = lambda M: _round_complex_array(M, fmt)
        return solve_sylv_tri(r(T_A), r(T_B), r(C) if rounded else C, ctx)
    return run


def _singular(ctx):
    # T_A[2, 2] + T_B[2, 2] == 0 exactly, met in the middle of column 2
    T_A, T_B = _triangular(20, 5), _triangular(21, 4)
    T_A[2, 2], T_B[2, 2] = 1.5, -1.5
    return _sylv(T_A, T_B, _complex(22, 5, 4), True)(ctx)


def _overflow(ctx):
    # column 2 divides by 1/4 and starts at an eighth of the largest
    # finite value, so the substitution overflows partway up the column
    T_A, T_B = _triangular(23, 5), _triangular(24, 4)
    np.fill_diagonal(T_A, 2.0)
    T_B[2, 2] = -1.75
    C = _complex(25, 5, 4)
    C[:, 2] *= ctx.format.max_finite / 8
    return _sylv(T_A, T_B, C, True)(ctx)


def _gemm_operands(seed, m, k, n, fmt):
    A, B = _complex(seed, m, k), _complex(seed + 1, k, n)
    A[0, 1], A[1, 0] = -0.0, complex(np.inf, -0.0)
    B[1, 1], B[0, 2] = complex(-0.0, 0.0), -np.inf
    return _round_complex_array(A, fmt), _round_complex_array(B, fmt)


def _gemm_plain(ctx):
    A, B = _gemm_operands(30, 4, 6, 5, ctx.format)
    return gemm(1.0, A, B, 0.0, None, ctx)


def _gemm_scaled(ctx):
    A, B = _gemm_operands(32, 4, 6, 5, ctx.format)
    C = _complex(34, 4, 5)  # raw: rounded only by the sum it enters
    C[2, 3] = complex(-0.0, np.inf)
    return gemm(2 + 1j, A, B, -0.5, C, ctx)


def _gemm_blocked(ctx):
    # 20 x 64 x 64 products: more than one block of the accumulation
    r = lambda M: _round_complex_array(M, ctx.format)
    return gemm(1.0, r(_complex(35, 64, 20)), r(_complex(36, 20, 64)), 1.0,
                r(_complex(37, 64, 64)), ctx)


KERNELS = {
    "sylv_tri-upper-raw": _sylv(_triangular(10, 6), _triangular(11, 5),
                                _complex(12, 6, 5), False),
    "sylv_tri-lower-rounded": _sylv(_triangular(13, 6), _triangular(14, 5, lower=True),
                                    _complex(15, 6, 5), True),
    "sylv_tri-singular": _singular,
    "sylv_tri-overflow": _overflow,
    "gemm-plain": _gemm_plain,
    "gemm-scaled": _gemm_scaled,
    "gemm-blocked": _gemm_blocked,
}


def outcome(kernel, fmt):
    counter = FlopCounter()
    ctx = PrecisionContext(parse_format(fmt), counter, "low")
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            out = [_sha(KERNELS[kernel](ctx))]
        except SingularEquationError as exc:
            out = [type(exc).__name__, exc.row, exc.col]
        except MpsylvError as exc:  # a pinned failure is an outcome too
            out = [type(exc).__name__, str(exc)]
    return {"out": out, "flops": counter.get("low")}


GOLDEN = {
    "gemm-blocked/40:11": {
        "flops": 167936,
        "out": ["16840f9b39c05d675d3c88dfb614295d9a8eec4cc93b338b01707770459e5dae"],
    },
    "gemm-blocked/b24": {
        "flops": 167936,
        "out": ["70bbbeebc312b986c5d489cb30e5a29b0341948ecd5f747e10a84f0ea18e2aa1"],
    },
    "gemm-blocked/bfloat16": {
        "flops": 167936,
        "out": ["6748ab170a6bc2d049a1dc70b2aba64845957da9d5b4531038e89e41dc344b42"],
    },
    "gemm-blocked/binary16": {
        "flops": 167936,
        "out": ["9fed03d44c360d26b69a5cd71f2a7ed83bfcdc640eeca6d22cf6080e13571133"],
    },
    "gemm-blocked/binary32": {
        "flops": 167936,
        "out": ["a8631079934d4d292b9c272992278b2116431968b5653d1ce40e78f64fe51169"],
    },
    "gemm-blocked/binary64": {
        "flops": 167936,
        "out": ["a815c54cf61f9ddd8858ce1aeba60fd2822954b643de01718aa3f145745795bb"],
    },
    "gemm-blocked/tf32": {
        "flops": 167936,
        "out": ["9fed03d44c360d26b69a5cd71f2a7ed83bfcdc640eeca6d22cf6080e13571133"],
    },
    "gemm-plain/40:11": {
        "flops": 240,
        "out": ["a39a021d8b6cad68d886355a182ecaed76c54c190e9e5103168462b1a1629dfa"],
    },
    "gemm-plain/b24": {
        "flops": 240,
        "out": ["f7b1f975848a2b62c1c3f65dd3ea3e22ca6edbc1b29251043b516d04c9fe264f"],
    },
    "gemm-plain/bfloat16": {
        "flops": 240,
        "out": ["6623477db192414a296800b6ae17d2967e2d71ac207c2f2adf839651c5698f4f"],
    },
    "gemm-plain/binary16": {
        "flops": 240,
        "out": ["b4b12cc89ae2d425253af4c54757025c10ced7fd8f6915047970ab6352d8f7b3"],
    },
    "gemm-plain/binary32": {
        "flops": 240,
        "out": ["7b62e447960dbc8a5019cfd1c7ddeee51b2213902973989ffa78a60385dc5fcf"],
    },
    "gemm-plain/binary64": {
        "flops": 240,
        "out": ["d5139062d153d8336aa3ccec6f1a3b5c946adf59806ebbcc14b691b343412f2c"],
    },
    "gemm-plain/tf32": {
        "flops": 240,
        "out": ["b4b12cc89ae2d425253af4c54757025c10ced7fd8f6915047970ab6352d8f7b3"],
    },
    "gemm-scaled/40:11": {
        "flops": 300,
        "out": ["11da8a3a8d1821180789496418647717d593809523e1fc35423a8756806b1a20"],
    },
    "gemm-scaled/b24": {
        "flops": 300,
        "out": ["addee14f9c28478ab60956644cec90dc889d54dcf66d343bf69217982a43de05"],
    },
    "gemm-scaled/bfloat16": {
        "flops": 300,
        "out": ["4ff2a2ab394db908305d0afe622a2f90e54ae9f5c8fd80d1e0acdc6ccc9349cb"],
    },
    "gemm-scaled/binary16": {
        "flops": 300,
        "out": ["c42bd4a2116b76ac077fb8bc2b0ad9e2784f0ff5cf5895bff4c6c5772347ae4c"],
    },
    "gemm-scaled/binary32": {
        "flops": 300,
        "out": ["ffaf4251cf5d6cb8f5f283ad864b7cb861c9c32b25497cca8b2aae9e0ea8d6fd"],
    },
    "gemm-scaled/binary64": {
        "flops": 300,
        "out": ["9e4b33f3b71d91d25507dd5cb5e8d20e07833ff864b08d7f7c6d38df0de544eb"],
    },
    "gemm-scaled/tf32": {
        "flops": 300,
        "out": ["c42bd4a2116b76ac077fb8bc2b0ad9e2784f0ff5cf5895bff4c6c5772347ae4c"],
    },
    "sylv_tri-lower-rounded/40:11": {
        "flops": 330,
        "out": ["34e49751b6a2f6ed33dd7a2da41e8aa4b3c1bc5e920c9c364a8b34db389d1578"],
    },
    "sylv_tri-lower-rounded/b24": {
        "flops": 330,
        "out": ["6ab8dccbba9c7f12daea7dfd2b34bccd30566e90534656c57a977a476992ea63"],
    },
    "sylv_tri-lower-rounded/bfloat16": {
        "flops": 330,
        "out": ["88c26fdb2b2d3e749de71cf87cf2d6bc788a1dc5e0c1eec9b169b4f221955c73"],
    },
    "sylv_tri-lower-rounded/binary16": {
        "flops": 330,
        "out": ["91be65172584d88082796f4f3cf2e842aa086d7f2c067df6efa5c0bc980d3de6"],
    },
    "sylv_tri-lower-rounded/binary32": {
        "flops": 330,
        "out": ["c44137c978adb0bf3dc747f24aaba00d3c3fc06652e883dd00099ed09c12dc5d"],
    },
    "sylv_tri-lower-rounded/binary64": {
        "flops": 330,
        "out": ["dbf0f167b01d6af3ac9301d714da3b94a52b21baaf01530ac8f1be6526fcfc05"],
    },
    "sylv_tri-lower-rounded/tf32": {
        "flops": 330,
        "out": ["91be65172584d88082796f4f3cf2e842aa086d7f2c067df6efa5c0bc980d3de6"],
    },
    "sylv_tri-overflow/40:11": {
        "flops": 140,
        "out": ["NumericBreakdownError", "non-finite values while solving column 2"],
    },
    "sylv_tri-overflow/b24": {
        "flops": 140,
        "out": ["NumericBreakdownError", "non-finite values while solving column 2"],
    },
    "sylv_tri-overflow/bfloat16": {
        "flops": 140,
        "out": ["NumericBreakdownError", "non-finite values while solving column 2"],
    },
    "sylv_tri-overflow/binary16": {
        "flops": 140,
        "out": ["NumericBreakdownError", "non-finite values while solving column 2"],
    },
    "sylv_tri-overflow/binary32": {
        "flops": 140,
        "out": ["NumericBreakdownError", "non-finite values while solving column 2"],
    },
    "sylv_tri-overflow/binary64": {
        "flops": 140,
        "out": ["NumericBreakdownError", "non-finite values while solving column 2"],
    },
    "sylv_tri-overflow/tf32": {
        "flops": 140,
        "out": ["NumericBreakdownError", "non-finite values while solving column 2"],
    },
    "sylv_tri-singular/40:11": {
        "flops": 130,
        "out": ["SingularEquationError", 2, 2],
    },
    "sylv_tri-singular/b24": {
        "flops": 130,
        "out": ["SingularEquationError", 2, 2],
    },
    "sylv_tri-singular/bfloat16": {
        "flops": 130,
        "out": ["SingularEquationError", 2, 2],
    },
    "sylv_tri-singular/binary16": {
        "flops": 130,
        "out": ["SingularEquationError", 2, 2],
    },
    "sylv_tri-singular/binary32": {
        "flops": 130,
        "out": ["SingularEquationError", 2, 2],
    },
    "sylv_tri-singular/binary64": {
        "flops": 130,
        "out": ["SingularEquationError", 2, 2],
    },
    "sylv_tri-singular/tf32": {
        "flops": 130,
        "out": ["SingularEquationError", 2, 2],
    },
    "sylv_tri-upper-raw/40:11": {
        "flops": 330,
        "out": ["0d2df9e4a03797446b5c19c00e9791ed44ad2fd273769f584ba3e53879621ad2"],
    },
    "sylv_tri-upper-raw/b24": {
        "flops": 330,
        "out": ["bb9006c183055afc0a0b904f09ccbe2ae7296490d23130f5944245ce7e5a22c7"],
    },
    "sylv_tri-upper-raw/bfloat16": {
        "flops": 330,
        "out": ["1bdfe21b3a4d2046c0919119043ea386a6381a972bf0b6d642d05823b508c6f2"],
    },
    "sylv_tri-upper-raw/binary16": {
        "flops": 330,
        "out": ["44605de4bfa64f2c74f789e7b84ff1f6cb8fbac6acf1da705a538146854798aa"],
    },
    "sylv_tri-upper-raw/binary32": {
        "flops": 330,
        "out": ["85d898952d6c0f38bc88122885506642a9768d9ceab2b8ee058a72b080d443eb"],
    },
    "sylv_tri-upper-raw/binary64": {
        "flops": 330,
        "out": ["714fa85fd1ddabf61b33fa67dab9307e733d1170a65b0085c7b7128980650723"],
    },
    "sylv_tri-upper-raw/tf32": {
        "flops": 330,
        "out": ["44605de4bfa64f2c74f789e7b84ff1f6cb8fbac6acf1da705a538146854798aa"],
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_recurrence(case):
    kernel, fmt = case.split("/")
    assert outcome(kernel, fmt) == GOLDEN[case]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(f"{k}/{f}" for k in KERNELS for f in FORMATS)
