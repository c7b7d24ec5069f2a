"""Byte identity of CLI reports.

Each command's report (its stdout, run in-process through ``cli.main``) is
checked against a sha256 recorded before a refactor that was to change no
output.  The commands are the README's CLI examples, entry 0 of each
perfbench workload written out literally, and edge cases: a banded measure
range near 2^16, a modulus past 2^64, a narrow banded scan, a 128-bit alpha
with --coprime and --omega-max, the critical-band and svolume drivers, the
omega series and residue profiles near 2^24, narrow scans whose alpha is
not dyadic, narrow scans past the prefilter's limit q^d < 2^63, and banded
count ranges that read the count table.  A change that is meant to alter
a report updates its digest here and says so in CHANGES.md.
"""

import hashlib
import shlex

import pytest

from diocurve.cli import main

REPORTS = {
    # README, "## CLI"
    "residues --q 8 --d 2":
        "2accb7fbf60374e8cda7cc9d10ac65dbdb7c569fd70d142660c587f4f1b6b438",
    "residues --qlo 2 --qhi 50 --d 3 --elements":
        "19434a61b1d85201af12ecb8e33cdc3ed5634c6ee1711a2b909197632dfe4485",
    "congruence --mode count --b 2 --q 7 --d 2":
        "fe0744332a4b05c8ab570dcb63d2b0829b20a2d799570082f5e3ae7f8e41f738",
    "congruence --mode lift --poly 0,0,0,-1 --b 2 --q 5 --ptilde 3":
        "7bd77acdf6446dd5626ec23f7960ed2c0433a81d81ca4c06280e77ef6f9f452a",
    "reduce --poly 0,0,-1 --alpha 19/64 --x 33/64 --p 1 --q 2 --r 0 --tau 2":
        "8fe5dc3d5012b62df2a17abc54c4068273edcd4560e2b0a9b2f5fa6f787951b3",
    "cover --tau 3 --d 2 --ad 1 --q 5":
        "052473ec4f16b8121006054bf98d6bbf38774c12475bdfb8acf5d0378c2cc92b",
    "cover --mode tail --tau 7/2 --d 2 --qlo 1 --qhi 65536":
        "974c998b824083424e180401bd6fd37b9e010afe9139fd378b68d5593c5f940d",
    "cover --mode series --z 2 --s 6/5 --n 6 --qmax 1048576":
        "60222755c616ae42b9fe24f6e709ec8f570f47b28e9684579bc1f647d113fa2d",
    "scan --poly 0,0,-1 --tau 5/2 --alpha 1/3 --qmax 4":
        "0ecf6f87f4cc4a71682ca38c0703f54aa1582b8be3384eccd22ce59ce7c7139a",
    "scan --poly 0,0,-1 --tau 5/2 --alpha 1/3 --qmax 1024 --curve":
        "1042272390fa2f53efc440170e260161cea11d365f64cc369aa75b7695186a0a",
    "experiment --kind threshold --taus '5/2;3;7/2' --schedule 2:16":
        "47f78af237fee144192b6395472f36deb042caa7a34339f35f63a2be6db4c06f",
    "experiment --kind growth --band 0,1/4 --alpha-count 20 --seed 0":
        "31f9f579740cd48bbbeecbd2cd1b3e81711adb2a79bab05d1b722c46f2a4abba",
    "experiment --kind critical-band --delta 1/4 --alpha-count 20":
        "7f384cfdb37c050c911538a4ff2f55c9502b2cb17a2824e81906b92e8e539a79",
    "experiment --kind svolume --tau 11/4 --qmax 1024":
        "a28c0f76bf6caf8adbc2f8575dc8ca6137839a4db9a89094971b080b628181bd",
    "experiment --kind stabilization --tau 13/4 --qlo 256 --qhi 65536":
        "c437f3a1aef62c2f0f0ecf97fee7cbab80870bbdb5fbe2ee9ed5c1f26bea0a19",
    # perfbench/workloads.py, entry 0 of scan-narrow, scan-wide, cover-full
    # (two commands) and cover-banded
    "experiment --kind stabilization --tau 13/4 --alpha-count 4 --qlo 256 --qhi 32768"
    " --seed 0":
        "38972423afeb5c508128c016860e896c2f7e15d4f03bf01fa3089304b1d3f9d8",
    "scan --poly 0,0,-1 --tau 7/4 --band 1/4,1/4 --alpha"
    " 16384037961143195970962942494184582745/340282366920938463463374607431768211456"
    " --qmax 8192":
        "ff3e14df694e0059e2a0a29c5e0d4a6acae7b2d125ab295e29a0b2f022d23cc0",
    "experiment --kind threshold --taus '5/2;3;7/2' --schedule 2:14":
        "53f415f1bb8a4d59d00685ae7ee0769bee5b2cff7edb981830ce96ef574b6656",
    "cover --mode series --z 2 --s 6/5 --n 6 --qmax 262144":
        "634648517d248fcefc1157179b7bb8f58d0cb02f5037c117de62e895f9d5e7ce",
    "experiment --kind threshold --taus 5/2 --band 1/2,1/4 --schedule 2:10":
        "23d3f2baf19f253170b294b81d3af1818f297f10eb8089a82680ad0cfd240f8c",
    # edge cases
    "cover --mode measures --tau 7/2 --d 3 --ad 12 --band 1/3,2/3 --qlo 60000 --qhi 61000":
        "990e834ed899347b80659ec6ed87bdfb4139fc130fff5b032e50fc420a9efc73",
    "cover --tau 3 --d 2 --band 1/4,1/4 --q 18446744073709551617":
        "bad59e76ae96b2de12fa9354aedd4193dde63ffd0026c835e07fe3807a3219e7",
    "scan --poly 0,0,-1 --tau 9/4 --band 1/4,1/4 --alpha 5741/9973 --qmax 3000":
        "11f45f683e29ff9a3e6ef5729c822f0b12162e4545cbecc1ba61a11ca93d1d14",
    "scan --poly 0,0,-6 --tau 7/4 --band 1/4,1/4 --alpha"
    " 12345678901234567891/340282366920938463463374607431768211456 --qmax 5000 --coprime"
    " --omega-max 2":
        "e4861aaeb5e3d3d0c6f256609b6135a0293396f422971fe4045240c93817aca0",
    "experiment --kind critical-band --tau 5/2 --alpha-count 4 --schedule 6:16":
        "ab5250c2b7cd0a6d700184f0d1c8c47e4f26bd2d6152c28f0a7be44f5c9cf467",
    "experiment --kind svolume --tau 11/4 --qmax 512 --alpha-count 3":
        "42d1446909a01c2c15877ff212f21b5e0edbc1f5fc6bbe3b59e1253aa1ac2b61",
    "cover --mode series --z 5/2 --s 1 --n 6 --qmax 20000":
        "3d28493810719a77acada01d1ac10737f33eb649796438d2b7c288526d93389c",
    "residues --qlo 16777200 --qhi 16777300 --d 4 --ad 6":
        "feaddda9ceba8377e5063a5d4807cf45b42872c36748189f3e256f5cc5592b58",
    # narrow scans whose alpha is not dyadic: a small denominator with every
    # flag, a denominator of 2^200 + 1 (A truncates), a banded scan, qmax^4
    # just below 2^63, and a tie |49 alpha - 20| = 1/7 = q^(d - tau) at q = 7
    "scan --poly 0,0,0,-12 --tau 7/2 --alpha 2/7 --qmax 3000 --primitive --coprime"
    " --omega-max 2":
        "ed28dfda73d80f76272e3aa69942a65f0990be9bda46b6da72aacb97931f8fd9",
    "scan --poly 0,0,-1 --tau 3 --alpha"
    " 1234567890123456789012345678901234567890123456789012345678901/"
    "1606938044258990275541962092341162602522202993782792835301377 --qmax 20000":
        "e57620087197856a9656b3e221556003575fd30ffcd159e06836e85cf465a8f1",
    "scan --poly 0,0,-1 --tau 5/2 --alpha 9972/9973 --band 1/2,1/4 --qmax 65536":
        "7d88d129f545ca981c0f97de52e1f9575a5b7dad2983615353f313a1e8b306ba",
    "scan --poly 0,0,0,0,-1 --tau 17/4 --alpha 1/3 --qmax 55108":
        "05296b03c5bdbb8cf4fcb8a7b8cf4d118734b12f99f64d97d0e5b4ace903651e",
    "scan --poly 0,0,-1 --tau 3 --alpha 141/343 --qmax 5000":
        "7f09f6762b340a5c83202094310c236ee557caaa1c93b69376223325915ebdc6",
    # narrow scans that cross the limit q^d < 2^63 of the prefilter: d = 4
    # just past qmax 55108, d = 5 banded, d = 6 with --omega-max, and d = 3
    # 100 q past 2^21 with --primitive --coprime
    "scan --poly 0,0,0,0,-1 --tau 17/4 --alpha 1/3 --qmax 55300":
        "74a942dd0b056409d45ba60811b3c53562305f078485c7ba25fa87a9507f273b",
    "scan --poly 0,0,0,0,0,6 --tau 23/4 --alpha 5741/9973 --qmax 6400 --band 1/4,1/2":
        "ce5a5ad28365c92a8b6adc5ef77ddaf9c1ae42842634bc7f72aa14aef4438882",
    "scan --poly 0,0,0,0,0,0,-1 --tau 13/2 --alpha 1/3 --qmax 1600 --omega-max 2":
        "5c89b54fa8810c8d232d799753d244942fd32f63ba87565a81a50ad983f681b1",
    "scan --poly 0,0,0,-12 --tau 7/2 --alpha 2/7 --qmax 2097252 --primitive --coprime":
        "662f4125f173b62d861e6de4f5cfb27356c93a04ba99d865a89421cd6d6fb9da",
    # banded counts over ranges that read the count table: a tail across the
    # COUNT_BLOCK edge, measures just below it at d = 3, a_d = 12, and a
    # threshold schedule with eps = 0
    "cover --mode tail --tau 7/2 --d 2 --band 1/4,1/2 --qlo 1 --qhi 70000":
        "5271fd8a392e79f78028423dc33e0e1d51568117069186aed3dbf38f5b06b9c2",
    "cover --mode measures --tau 7/2 --d 3 --ad 12 --band 1/2,1/4 --qlo 65500 --qhi 65600":
        "8dd4b09f2d55e05c4a192ab462aca8a7a62496c7dc26756238801bc8632c3760",
    "experiment --kind threshold --taus '5/2;7/2' --band 0,1/3 --schedule 2:12":
        "d4459b532e3ccbbabf7431d85e93bd19c11b5cc9c4187de3c5b0f8241178abee",
}


@pytest.mark.parametrize("command", REPORTS)
def test_report_bytes(command, capsys):
    assert main(shlex.split(command)) == 0
    report = capsys.readouterr().out.encode()
    assert hashlib.sha256(report).hexdigest() == REPORTS[command]
