"""Golden outputs of the factorization and reduction kernels in every format.

Each case runs one kernel of `mpsylv.linalg` under one format and pins the
sha256 of every output array (or the exact bits of a scalar result) and
the flops it charged.  The formats cover the software rounding kernel
(bfloat16, tf32, b24, 40:11), the IEEE-shaped formats (binary16, binary32)
and binary64, where rounding is a no-op, so a change to how a value is
rounded or how rotations and reductions are batched has to reproduce the
results bit for bit.  Re-record a value only when a change alters results
on purpose, and say so in that change.
"""

import hashlib
import warnings

import numpy as np
import pytest

from mpsylv.errors import MpsylvError
from mpsylv.linalg import (
    _dot,
    _vec_norm2_ctx,
    hermitian_eig,
    householder_qr,
    mgs_qr,
    schur,
)
from mpsylv.precision import FlopCounter, PrecisionContext, parse_format

FORMATS = ("bfloat16", "binary16", "tf32", "b24", "binary32", "40:11", "binary64")


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.complex128).tobytes()).hexdigest()


def _complex(seed, m, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _vector(seed):
    # mixed magnitudes, all inside the binary16 range
    rng = np.random.default_rng(seed)
    scale = np.exp2(rng.integers(-6, 6, 24))
    return scale * (rng.standard_normal(24) + 1j * rng.standard_normal(24))


def _schur(A):
    def run(ctx):
        F = schur(A, ctx)
        return [_sha(F.U), _sha(F.T)]
    return run


def _deflating():
    # block upper triangular with diagonal blocks 0:3, 3:5, 5:7, 7:10: the
    # Hessenberg form starts with an exact zero (a -0.0) on the subdiagonal
    # and two 1e-9 couplings that a low format deflates in the first pass
    A = np.triu(_complex(17, 10, 10), -2)
    for lo, hi in ((0, 3), (3, 5), (5, 7), (7, 10)):
        A[hi:, lo:hi] = 0.0
    A[3, 2] = 1e-9 + 1e-9j
    A[5, 4] = complex(-0.0, -0.0)
    A[7, 6] = -1e-9j
    return A


def _eig(ctx):
    G = _complex(12, 5, 5)
    V, d = hermitian_eig((G + G.conj().T) / 2, ctx)
    return [_sha(V), _sha(d)]


def _qr(kernel):
    def run(ctx):
        F = kernel(_complex(13, 6, 4), ctx)
        return [_sha(F.Q), _sha(F.R)]
    return run


def _dot_case(ctx):
    z = _dot(_vector(14), _vector(15), ctx)
    return [z.real.hex(), z.imag.hex()]


def _norm_case(ctx):
    return [float(_vec_norm2_ctx(_vector(16), ctx)).hex()]


KERNELS = {
    "schur-complex": _schur(_complex(10, 6, 6)),
    "schur-real": _schur(np.random.default_rng(11).standard_normal((6, 6))),
    "schur-deflate": _schur(_deflating()),
    "hermitian_eig": _eig,
    "mgs_qr": _qr(mgs_qr),
    "householder_qr": _qr(householder_qr),
    "dot": _dot_case,
    "vec_norm2": _norm_case,
}


def outcome(kernel, fmt):
    counter = FlopCounter()
    ctx = PrecisionContext(parse_format(fmt), counter, "low")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            out = KERNELS[kernel](ctx)
        except MpsylvError as exc:  # a pinned failure is an outcome too
            out = [type(exc).__name__]
    return {"out": out, "flops": counter.get("low")}


GOLDEN = {
    "dot/40:11": {
        "flops": 48,
        "out": [
            "-0x1.2958e9bed0000p+6",
            "-0x1.8cef0eb75a000p+6",
        ],
    },
    "dot/b24": {
        "flops": 48,
        "out": [
            "-0x1.2958000000000p+6",
            "-0x1.8cec000000000p+6",
        ],
    },
    "dot/bfloat16": {
        "flops": 48,
        "out": [
            "-0x1.2a00000000000p+6",
            "-0x1.8e00000000000p+6",
        ],
    },
    "dot/binary16": {
        "flops": 48,
        "out": [
            "-0x1.2980000000000p+6",
            "-0x1.8d00000000000p+6",
        ],
    },
    "dot/binary32": {
        "flops": 48,
        "out": [
            "-0x1.2958ec0000000p+6",
            "-0x1.8cef100000000p+6",
        ],
    },
    "dot/binary64": {
        "flops": 48,
        "out": [
            "-0x1.2958e9becc452p+6",
            "-0x1.8cef0eb758a2fp+6",
        ],
    },
    "dot/tf32": {
        "flops": 48,
        "out": [
            "-0x1.2980000000000p+6",
            "-0x1.8d00000000000p+6",
        ],
    },
    "hermitian_eig/40:11": {
        "flops": 3053,
        "out": [
            "21f7649d829787ed9fcb01a6f80c08fea4d3c6e970ce914e058f3cb23982675f",
            "8b47bfac954f0be27938646afb621159f844d012319d5d856eea39e07d43a861",
        ],
    },
    "hermitian_eig/b24": {
        "flops": 2729,
        "out": [
            "f008591a7aef65257ac1f4365cdcf77688ebd1d1a6dbee279a88c4c9604e9def",
            "e06d7370a5396b25a484d843f2b14938ac295000e689dfb5cc8a95c40004794e",
        ],
    },
    "hermitian_eig/bfloat16": {
        "flops": 2009,
        "out": [
            "55239268422f9eafa13039f3f667af5a6fbed27ea78d5811bfa0d9ff0bda0cff",
            "84dc79e8baef2f808b5e7ca906c5cb74d70bc0dad7f11f6818c718a628d2efd7",
        ],
    },
    "hermitian_eig/binary16": {
        "flops": 2249,
        "out": [
            "26abc75c152fd1e9ea19d3e60a52c6da826ff16e5aa78e78c172ddd11f8928ce",
            "8ee4ad9d6faaf9e9e325dadc7cf9359825078d3a52a4e87e5cf61c4047dfe0a3",
        ],
    },
    "hermitian_eig/binary32": {
        "flops": 2729,
        "out": [
            "54a07afeb99d6bbbdc782d54c2a109b298693ccdac59587700dabb34aaa57a19",
            "0b9f05e9eac759215c8d5723c1a2176fca65852fbcb8a32bc7a0459d2e38d9cc",
        ],
    },
    "hermitian_eig/binary64": {
        "flops": 3293,
        "out": [
            "e56c30d69b4da8118f7852f4d88a0fb2e01dd2bae4c41ef0299767460e85b0eb",
            "629f5ccf92d1f39ecdeaff48ecf50bb00b421c2e199aaecb946187582533549a",
        ],
    },
    "hermitian_eig/tf32": {
        "flops": 2249,
        "out": [
            "26abc75c152fd1e9ea19d3e60a52c6da826ff16e5aa78e78c172ddd11f8928ce",
            "8ee4ad9d6faaf9e9e325dadc7cf9359825078d3a52a4e87e5cf61c4047dfe0a3",
        ],
    },
    "householder_qr/40:11": {
        "flops": 666,
        "out": [
            "f1a0f72775941f4a35e7ae10a8bd7d81e7a4c7a4fc45503955bfa5cc86f3b3ef",
            "387cf22e3c5f67937ed67ae765ca9d7de1774509e7d3cf5dbb1997d29d643516",
        ],
    },
    "householder_qr/b24": {
        "flops": 666,
        "out": [
            "627ec36dd12eac86016f93ba3ed2b3b774486b73ba0f8ce1eaf8db81fcdb1ac5",
            "420f56276a971c8b06b2c21f2cc64fdae83a51255a3f8e24202ba51898a428fe",
        ],
    },
    "householder_qr/bfloat16": {
        "flops": 666,
        "out": [
            "eb18945bee8b57ca8bab817305d7ae657f24ba3595c0a374b3e57331ebbd5c20",
            "9d52be546d277a475cb70bdddd1a15f1b13fff7c6faedcc293e070d46104ff2d",
        ],
    },
    "householder_qr/binary16": {
        "flops": 666,
        "out": [
            "6726970f9cbda0718d96c0b9655c47a41d75f721c25e0aae29bad34b046307a1",
            "d2cdade7affd2ff833925a6a38a8ca3dce4a03dfd87d8e028e5aab64992f591c",
        ],
    },
    "householder_qr/binary32": {
        "flops": 666,
        "out": [
            "60836938803e71b29d751eb71207b67fec106998650d276d63989074d7cba20b",
            "a733efc58cb81649c230194ee58b37c95ad607dc405a6a0cf3d31b1b66e97010",
        ],
    },
    "householder_qr/binary64": {
        "flops": 666,
        "out": [
            "ecdf4377d9b10574a3339ba80e35f7e044b09509858a7bbdfab2c2d5742a5cb1",
            "f4e66c07c89f9f1cc60059d6f36dab90c7ceeebbec327b579cabc1725064493b",
        ],
    },
    "householder_qr/tf32": {
        "flops": 666,
        "out": [
            "6726970f9cbda0718d96c0b9655c47a41d75f721c25e0aae29bad34b046307a1",
            "d2cdade7affd2ff833925a6a38a8ca3dce4a03dfd87d8e028e5aab64992f591c",
        ],
    },
    "mgs_qr/40:11": {
        "flops": 220,
        "out": [
            "a1e1e64410541fb5e42c660128b3f8b61650c307e9d68f6be64c968fa1674742",
            "25c61f6081dbb02cd5811104b5d9b201a5adc0d44c11087b1780756e3a1b92cb",
        ],
    },
    "mgs_qr/b24": {
        "flops": 220,
        "out": [
            "0b674a26a3e1335a10706acb0d692ed813ae184c588a012a9db98b1bd6699844",
            "92248bd6c711f839dcb68d6c257fa5424689e07b9c6299aa731a545770d65569",
        ],
    },
    "mgs_qr/bfloat16": {
        "flops": 220,
        "out": [
            "a44f9fa3f00b4ff299b2d26aa6d4fafcfd257150c6def108d74c6a810cabbdf3",
            "9c3943d94f64c4990fc8d278916f8f3349fafce685ac583f6fa4bdf02f9bbce6",
        ],
    },
    "mgs_qr/binary16": {
        "flops": 220,
        "out": [
            "bbc2bd5b30ac0a0e6e3b89ff7dfefe55997aff98ba2ee5a172e1e06a7f4494e9",
            "920eed92b49096e251dc949ce7fe5140e0334a94cca19ac9806ca4865d32d50e",
        ],
    },
    "mgs_qr/binary32": {
        "flops": 220,
        "out": [
            "59f10ed0cb4c406dbb5c78ccba849961a409702851501e0777acafd3a3d722b1",
            "ef95a6538433472505d017f7f942718634b1662e163e973ad43ecb19bb2e9079",
        ],
    },
    "mgs_qr/binary64": {
        "flops": 220,
        "out": [
            "579a8fa11c632614f8079274a48763d6db7f0b7a418e475b4e64764b7412e912",
            "675d860349f9e6ee6d3884afae1200c168a56bbc73ecb3a4a0cde58f86161f68",
        ],
    },
    "mgs_qr/tf32": {
        "flops": 220,
        "out": [
            "bbc2bd5b30ac0a0e6e3b89ff7dfefe55997aff98ba2ee5a172e1e06a7f4494e9",
            "920eed92b49096e251dc949ce7fe5140e0334a94cca19ac9806ca4865d32d50e",
        ],
    },
    "schur-complex/40:11": {
        "flops": 5938,
        "out": [
            "9f3d15c6b05e57611a1be95de50402ffd8466774ebb4c9a25ba11d58f989c02a",
            "e0212d6548475cb11ae2d8448672c7eb7acf6f4e77de7a3379d97f6dbd1b2dea",
        ],
    },
    "schur-complex/b24": {
        "flops": 4546,
        "out": [
            "c0277a92c546785cc0b127ca3e5d43f0c6d753ed32db5500c420824a4a1dc2fa",
            "38ab12708134a50a32e59a69f62529fdee3203a3473507584ebf1e0e0d90778d",
        ],
    },
    "schur-complex/bfloat16": {
        "flops": 3898,
        "out": [
            "bb496433027c1585bd47f3a8f0b607b5087a8fcdcc3b709d726f3d88c430b162",
            "7637ed5de21e1cd4d0595213da887c261facc5f52715a8817ced648e2621ccdc",
        ],
    },
    "schur-complex/binary16": {
        "flops": 4546,
        "out": [
            "964703db17391681c67811ac02f03ec0a28e59fc7fc81ae066719a6af7b350c2",
            "adb46f48ab380120850a99b7ca688ec3344e5215e2ea07798e36929b4a800aaf",
        ],
    },
    "schur-complex/binary32": {
        "flops": 5014,
        "out": [
            "f1e95220baa59c448d1a8589d9ceebedd40f935fad47d173dff8714ac1d198e6",
            "fc4777970eba7de2497734de816a0f7d69f40591f56d8f23c0c5eb686acba44d",
        ],
    },
    "schur-complex/binary64": {
        "flops": 6310,
        "out": [
            "d8510fea6c3281d6daa3a95858a0126bcbda1017767a1309f76618dace8ceb41",
            "99d53aea2a8b028ca49a28f7f84b94c0e5e32384d9092c6ab2ee60ba08b11a36",
        ],
    },
    "schur-complex/tf32": {
        "flops": 4546,
        "out": [
            "964703db17391681c67811ac02f03ec0a28e59fc7fc81ae066719a6af7b350c2",
            "e4261298187015c1bbd7a2bb1ed6c3f17201a6a8a6f4ffa310c678ab5655838b",
        ],
    },
    "schur-deflate/40:11": {
        "flops": 8570,
        "out": [
            "017bcf120529f725b8f2705deace35f236bc3d52a349f1024a17d20d803d181b",
            "071eca6fe9de845fedf7e0996e028055455e8aa0c8045b30115fd0835b730136",
        ],
    },
    "schur-deflate/b24": {
        "flops": 5030,
        "out": [
            "47f64e2efc0e2665e06b8be770f15a5159bc722897a8e287a09cda55989717a2",
            "cce8e4d1f763f2feabc38a8b6520c85a19e0acfdfdbe6e6ae5f38b740b0d0068",
        ],
    },
    "schur-deflate/bfloat16": {
        "flops": 4610,
        "out": [
            "ab734d92f2e18f29b9be1a48763387733ec7ccaebdb9b240ff9ecedfd1713fea",
            "757e8a80140471dd44ad81c148fcda33b6a071ffe223dfeb4bca080683a0f045",
        ],
    },
    "schur-deflate/binary16": {
        "flops": 3235,
        "out": [
            "b4ddb597fa67b683f938785c9355a84cd8135d9c38414e1980d636e5d5a4a849",
            "0a0da8eb980adda65db67648429dfcfdfecc4464fbcafe7261ce34e40ed09b07",
        ],
    },
    "schur-deflate/binary32": {
        "flops": 5582,
        "out": [
            "f602e47f50d9e18afcdf3f1ab33476a19b65b6d6454ed64b9f8724aa14777e6e",
            "67b51bc23da1d64e62eaf12327c6f6aa5137a05382dfb9fc3819d8d3dc65aa41",
        ],
    },
    "schur-deflate/binary64": {
        "flops": 9830,
        "out": [
            "c63dd843a340dabebe6aa75a23bdfdf32000a7482f0799103aec0d18ab1493e9",
            "ac0ab737ebf9aba398eb888a6fddd1be2af276ca7b15f9c87485f186890dd0e5",
        ],
    },
    "schur-deflate/tf32": {
        "flops": 5030,
        "out": [
            "82240c8c4d704dfeaba451a5922c72d8c3a89285abfb3a8a235edd41fc3ba8c9",
            "7c7faf06d992aacdbc6e550643c2a4d985ba04db3f9bdde4f9cd67b3cf58af30",
        ],
    },
    "schur-real/40:11": {
        "flops": 6862,
        "out": [
            "4b092e0327ffe845e7a81d40520d72ec60e524a18d1d3d87abbac8d32573a88c",
            "8da400c805b71de7bbc42c8bc54e2aa0d5fc5964728711c06240ac8eb52e0c71",
        ],
    },
    "schur-real/b24": {
        "flops": 5098,
        "out": [
            "a3d0a228bc45dcc42c63702fe0dc4dbd65f27b4fd697ed376c393358a20464c8",
            "05339891fc1c493cc6a9de2426ffff57e95aa2fa85ec9b7e878f16f8cdb4ad99",
        ],
    },
    "schur-real/bfloat16": {
        "flops": 4546,
        "out": [
            "8bf34b7305cf0adfe57c142bd211c2746e5e3e7a723388af3f34c7806c70978b",
            "3244f448d586a2ea0d98797f0728f45b9a1594a2980387157519999207007032",
        ],
    },
    "schur-real/binary16": {
        "flops": 4822,
        "out": [
            "094c0001b54af8fed4df3788d869b499f0b8bbc76b6b4afcc8047d06f7f4ba89",
            "4408ec9de18968e51966233b6ed4a153eb8a7529bd310a716612f2508cd5dbca",
        ],
    },
    "schur-real/binary32": {
        "flops": 5842,
        "out": [
            "0bf748906f63d3e6c8aac1a7b168b05b7d2992d3fd7f7ae29ff772fce4c12cff",
            "932f790c2a4db2c40603cea6e46c2b7cd7d176806b7013bbcc5dd64392b26dec",
        ],
    },
    "schur-real/binary64": {
        "flops": 6862,
        "out": [
            "352e1284bd47b62259c5bbf7fa4481a57b406970f28f0277d663a5380ed7551a",
            "83cf419be476b3711c54cf300c6e445637325e1b218a81bf849333a4ca2f007d",
        ],
    },
    "schur-real/tf32": {
        "flops": 4822,
        "out": [
            "094c0001b54af8fed4df3788d869b499f0b8bbc76b6b4afcc8047d06f7f4ba89",
            "4408ec9de18968e51966233b6ed4a153eb8a7529bd310a716612f2508cd5dbca",
        ],
    },
    "vec_norm2/40:11": {
        "flops": 49,
        "out": ["0x1.3c6d502bc4000p+5"],
    },
    "vec_norm2/b24": {
        "flops": 49,
        "out": ["0x1.3c6e000000000p+5"],
    },
    "vec_norm2/bfloat16": {
        "flops": 49,
        "out": ["0x1.3c00000000000p+5"],
    },
    "vec_norm2/binary16": {
        "flops": 49,
        "out": ["0x1.3c80000000000p+5"],
    },
    "vec_norm2/binary32": {
        "flops": 49,
        "out": ["0x1.3c6d500000000p+5"],
    },
    "vec_norm2/binary64": {
        "flops": 49,
        "out": ["0x1.3c6d502bc2e48p+5"],
    },
    "vec_norm2/tf32": {
        "flops": 49,
        "out": ["0x1.3c80000000000p+5"],
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_kernel(case):
    kernel, fmt = case.split("/")
    assert outcome(kernel, fmt) == GOLDEN[case]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(f"{k}/{f}" for k in KERNELS for f in FORMATS)
