"""Byte-identity goldens for every command shape of the CLI.

Every request runs through ``cli.run``; its stdout, with ``timing_ms``
removed from the JSON envelope, must hash to the digest recorded here.  The
symbolic-n digests were recorded while Poly2 still stored flat (deg_n, deg_x)
keys, so they pin the canonical forms, their order and their rendering
independently of the x-major layout.  The numeric `pgf` (json, text and
latex, with and without `--expand`), `moments` (with a zero variance),
`approx`, `geo`, `simulate --verbose --gof` and `verify` digests were
recorded while each handler still built its wire dicts by hand, so they pin
the wire format independently of the one serializer, `cli._wire`.  The
digest re-sorts the parsed envelope, so key order is pinned in
`tests/test_cli.py` instead.  Never regenerate them from the code under test.
"""

import hashlib
import json

import pytest

from ballcell import cli

GOLDEN = {
    "pgf --symbolic-n --balls 1 --format json": "37c73d18f8261ffd685ec43b38580b79798a32e98e847ca3cc255dd294628e5e",
    "pgf --symbolic-n --balls 1 --format text": "73cb3858a687a8494ca3323053016282f3dad39d42cf62ca4e79dda2aac7d9ac",
    "pgf --symbolic-n --balls 1 --format latex": "73cb3858a687a8494ca3323053016282f3dad39d42cf62ca4e79dda2aac7d9ac",
    "pgf --symbolic-n --balls 2 --format json": "bff802197592a46e451a3584aaa1388b9e7aaeab817ba58743224e316a1d529f",
    "pgf --symbolic-n --balls 2 --format text": "a8049e3746a8ff3cf30932ddec5a8b075d0c82686af4fd44675d57cd68c134da",
    "pgf --symbolic-n --balls 2 --format latex": "8770d9000eb04a3366c4a718e7d5e405e971914d364449abc3bded5eb8c94105",
    "pgf --symbolic-n --balls 3 --format json": "ebd471c9d128709037faf5fcb6325fbe7a919f3870efb9afda54880b7015c8d5",
    "pgf --symbolic-n --balls 3 --format text": "af512b1d1e2e5f39bdce6492975651c8a3635b659cb2efb6b33929e59a4f5d39",
    "pgf --symbolic-n --balls 3 --format latex": "3185ed37ca852db45e03c79b7a89b7fb6cdacc5b3cc7c80e0c2254e8ee86f851",
    "pgf --symbolic-n --balls 4 --format json": "01f191463410c9fbf50eacf2f57313ecfc183f3613aeef6b419ed75088d3c0e2",
    "pgf --symbolic-n --balls 4 --format text": "fab8b92da8da1af60338cff952298396449eeaf08108661903c6e160bf484e5e",
    "pgf --symbolic-n --balls 4 --format latex": "7cb20dfcb50432e145f755d89ce795c08ec6a35ac0684d06303a1ab3fd0be9c4",
    "pgf --symbolic-n --balls 5 --format json": "eddeac4b310bf1721548bf01d72e284b208888102f6b6e5ec95cadd9dca4a418",
    "pgf --symbolic-n --balls 5 --format text": "af62bc31a95ef7de55411e24213e55104727476a74dfdec7793a983ce3a922b3",
    "pgf --symbolic-n --balls 5 --format latex": "2e8940cd4c02dcd4b4cc9f5b8bdea83a1084054805d30b2f232486e85a781dec",
    "pgf --symbolic-n --balls 6 --format json": "74edae3dc0ba462601fd1ec097564b02ac57700ecc2553b5e7517a228846cdbf",
    "pgf --symbolic-n --balls 6 --format text": "ca19021bbebe1b1e193b866edc398efb0d0380e7934fc2335a3cff5a660ce3c8",
    "pgf --symbolic-n --balls 6 --format latex": "d9582d2e2b4f54051793bfc0c2a3a5ca4e4b2d8f9554e6bc99e902c120c917fa",
    "pgf --symbolic-n --balls 7 --format json": "2b2584dd80b727be62a7b62e65242138e70e3c2a883198b4178d9d41921e38d6",
    "pgf --symbolic-n --balls 7 --format text": "ee34ae1cbfecd74137cd736dfabc84ef70c760a513195eadd8ddab3834f4ffdb",
    "pgf --symbolic-n --balls 7 --format latex": "aa3763a64c834be7cea671e12bcddfdb16da1bfb886b568c94a19b63e907cbca",
    "pgf --symbolic-n --balls 8 --format json": "042fd94dde85ba9b1bf80aa428054d00bc438674ef6f1a899c3965b7e89dd52f",
    "pgf --symbolic-n --balls 8 --format text": "14e95c5469f850272d3386efe897b58d68f4bd5749b78a1d9747d9238df5817a",
    "pgf --symbolic-n --balls 8 --format latex": "46d8489e6166d120853cf3a2f39ca81410fa01d2e9f2ef150374d8c5bae75be2",
    "pgf --symbolic-n --balls 9 --format json": "8d0b0f712d454c989c42e3ff49575bc7729c8955d69fe13af3785a4a0c1565e6",
    "pgf --symbolic-n --balls 9 --format text": "7122bd5828eefedb722af85f74c74a54b528827c39df81c2fad4222225b3db4c",
    "pgf --symbolic-n --balls 9 --format latex": "961260c8169c821e49acaefb8f172b2834ffa1b8678cdf2b32b31b0a126f4163",
    "pgf --symbolic-n --balls 10 --format json": "6dd465141b9d866a1228a4817b7ca237d8149a581ad16b29f69a449277cf5bdf",
    "pgf --symbolic-n --balls 10 --format text": "7dfd51ca64a8a3362ce6ace18ebee2d606fc7a3b75c4320333b40d852c8a1be8",
    "pgf --symbolic-n --balls 10 --format latex": "b48f4940298bb21d8c0b7d464a80b226054df4373c92dd6a902d6df6e6176d4b",
    "pgf --symbolic-n --balls 11 --format json": "cf998baff56a297fe4af29d6c64f110bc27bd864675fa18ec853810e8e7ad4e2",
    "pgf --symbolic-n --balls 11 --format text": "59d3bc5477ae510fafafef39908bdd460bda0f9e3cd0110d6204cfea2fb3ef02",
    "pgf --symbolic-n --balls 11 --format latex": "34dc0cf4cefe40ced915fbbfccf7b73fb0052b6344a5c25d75ea28bbb8c69a42",
    "pgf --symbolic-n --balls 12 --format json": "0194e455e0ce739a0bce50b812f2b0b01d01f9fe31419097749f55bfa9cc88cd",
    "pgf --symbolic-n --balls 12 --format text": "980d6ffff4f302785d939e70350980587837762bd9571c99d7bd05ea120cacf7",
    "pgf --symbolic-n --balls 12 --format latex": "28d8b8be233742c38bb14b12e0a1171564fbc338b4ed87b6f1b96987386a2fec",
    "pgf --symbolic-n --balls 1 --expand 4": "0af7515263f4a6f30b34819f4443f7830c3d92df5dc2b6dcf8eef82ca61fb469",
    "pgf --symbolic-n --balls 2 --expand 4": "d87e8755e783c9c32ce4c505a09e86a66e8a9d184671689b61b3027305af2a4a",
    "pgf --symbolic-n --balls 3 --expand 4": "bc92c00c7c269986c7475443426278d4420e3a0f178e1ff1c1ecd5dc60582e34",
    "pgf --symbolic-n --balls 4 --expand 4": "f6d71e0594f0a942b5b647a94a64a2639823df6affbc9211a5467d148fe25ce7",
    "pgf --symbolic-n --balls 5 --expand 4": "c1f93cacb5a382f1494b5beb2e8a4ddd8b42e882f467786861021b67e8cf2b69",
    "pgf --symbolic-n --balls 6 --expand 4": "2291a835caff21d8e23c1768a0512de395ed55e1d7ad74af38d7afe70f5da49b",
    "pgf --symbolic-n --balls 7 --expand 4": "426698f815e25344fb0b1511130892c376c0753c2df87629e5ed71fe9c48f7ab",
    "pgf --symbolic-n --balls 8 --expand 4": "520bda8e43f1049add9ca47dcb983d4a5c21c67b906ad345aa30279e4d238d92",
    "moments --symbolic-n --balls 1 --order 4": "e628b9ebf9fbb36715d15e8b57fed675fff44021c3df1199682c684f55034051",
    "moments --symbolic-n --balls 2 --order 4": "a77f01a50e40a36b0fccf85cd70461c73a497701aa05e731573e8dc5d36c95b7",
    "moments --symbolic-n --balls 3 --order 4": "21c9d3791be1fdab5f116e793a15d99b772b979aa407af77d3ef12febf765b83",
    "moments --symbolic-n --balls 4 --order 4": "b4e856dfea0f6721745d5da83de5c8ad14f93bc6c551f9f9a85b07bf5a3e31d9",
    "moments --symbolic-n --balls 5 --order 2": "2785f0eab758be862af67b1cc5650095a62dda52575057c68754ca16cc5dd487",
    "pgf --cells 3 --balls 4 --format json": "8a3debbc6c7841eaa54e9234edf91487ced9adf20847bd6fbba6902a7916a540",
    "pgf --cells 3 --balls 4 --format text": "9e9665d843589bb792b649ffd3c205cf4214c9b4cd3af9bf9691e9a1a5f0106b",
    "pgf --cells 3 --balls 4 --format latex": "caa9d33eff24c2bd315b65d6bb7caa30d26178878128115ccca5653a1d439dce",
    "pgf --cells 3 --balls 4 --expand 6 --format json": "f1975016c9cb5130ff085ec9ff066ed7a934ff02c8ab10d72d00b971ee5e49b7",
    "pgf --cells 3 --balls 4 --expand 6 --format text": "a3eff80c0119eb7607c5e55fb82f9fec32a29f9e70ac5928f001afc8cac19f1b",
    "pgf --cells 3 --balls 4 --expand 6 --format latex": "caa9d33eff24c2bd315b65d6bb7caa30d26178878128115ccca5653a1d439dce",
    "pgf --cells 5 --balls 5 --expand 6 --format latex": "c2c4aa4c870e245dfe4facab4e29e0c95751573e71a67c8b2061774ac8b92b9a",
    "moments --cells 3 --balls 4 --order 4": "0d81770011623853247c9851350c70ace6c413b13bf49d5e7478d9bc7d54f798",
    "moments --cells 5 --balls 6 --order 6": "910a6119e35b3c2ba536e982fcd5a53aa62e32bcbcc8864301eb61052d709eb9",
    "moments --cells 2 --balls 1 --order 4": "eeec7ecd63aacba25f74a085e50cb40f79d86977fcbc08fe20e6b1ff7daf80e4",
    "approx --cells 5 --balls 7": "17f13b62b5095923738badff1ff420466c0315b04d0fb5753cd114f1f8821712",
    "approx --cells 2 --balls 1": "d16f9c182ab6327cca71cb82091a9b7172d09b070e20fd5d2412d22000f7e1a1",
    "approx --cells 3 --limit --rmax 60 --digits 20": "ac36c0c46e6f0ba23866ea7e90b7d70dbaf5e863bb9098fcacf1fb4936cd0ac8",
    "geo --alpha 1/3 --r 40 --order 6": "86707a43209a86f075461f14a86de037b63b9c2ecc0310e0bcad8224c480150e",
    "geo --alpha 1/2 --limits": "abc7d1ca30ad1e49698cebdd959018b66b3b8f7d117b6fde7fbf4c83da162c10",
    "geo --alpha 1/3 --limits": "86ef6702d8b6e54619201ba822d0da83ebb855e6167d37d7e27b84804de26edb",
    "simulate --balls 4 --cells 3 --trials 20 --seed 11 --verbose --gof": "e38bb5bbd0e69cf9f54030ef9678cd3e541c4cefa1727bf5f3b40c18bafa82cc",
    "simulate --balls 5 --cells 2 --trials 30 --seed 11 --verbose --gof": "e1dd0079bf4c13c320d2a313798dcdfe40f1fbe127716821a5719bad9adeb954",
    "verify --suite paper --budget small": "9f58cd2d33c75933cfd742f6754251f60c02b812691b55728efad9ee3801da7e",
}


def _digest(capsys, argv: str) -> str:
    assert cli.run(argv.split()) == 0
    out = capsys.readouterr().out
    if out.startswith("{"):
        envelope = json.loads(out)
        del envelope["timing_ms"]
        out = json.dumps(envelope, indent=2, sort_keys=True)
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_symbolic_cli_output_is_byte_identical(capsys, argv):
    assert _digest(capsys, argv) == GOLDEN[argv]
