"""Byte-identity goldens for every command shape of the CLI.

Every request runs through ``cli.run``; its raw stdout, with only the
envelope's ``timing_ms`` line cut out (as ``perfbench/workloads.strip_timing``
cuts it), must hash to the digest recorded here.  So each digest pins every
byte the command prints: values, key order, indentation and line breaks.
They were re-recorded as raw bytes at a commit whose outputs matched the
earlier digests of the re-sorted envelope, which were recorded while Poly2
still stored flat (deg_n, deg_x) keys and while each handler still built its
wire dicts by hand; so they pin the canonical forms and the wire format
independently of the x-major layout and of the one serializer, `cli._wire`.
The `simulate` digests, among them states on either side of the lane-packed
capture counts' size bound, were recorded before those counts and the
integer exact law existed, which must reproduce them; the two `--gof`
states of 2000 trials at seed 1 were recorded while the law still summed
its Fractions at every doubling and the fit summed Fractions per term.
Never regenerate them from the code under test.
"""

import hashlib
import re

import pytest

from ballcell import cli

GOLDEN = {
    "approx --cells 2 --balls 1": "f767e22c62a6220dd6323da0162468dc1d765b57ed426b218b22576fa9248b6f",
    "approx --cells 3 --limit --rmax 60 --digits 20": "4c67342765edd3823c79e9abdb21b8d4c3de0660e33b002a4fa4b5fd8555b095",
    "approx --cells 5 --balls 7": "f00372a46813091f240f6c2daddea5201c0b30021632d756131bd31e6782fe6a",
    "geo --alpha 1/2 --limits": "7eb2034836fc4563a34d91729bd9f8114ec4b2ba3ed9af67217786b272521058",
    "geo --alpha 1/3 --limits": "47285d38fcf1d3494729a0377993e894684cd344d8c7552f0b9256d5e162dd4b",
    "geo --alpha 1/3 --r 40 --order 6": "7976e7e6be2a5ef8c2f0bf0ac8ab5ac5c4bcf1d576a019870f14efb698944de7",
    "moments --cells 2 --balls 1 --order 4": "dba87ceb6846aa6d9178b6238007d15572e27dc75236723164181c31c27e9a8d",
    "moments --cells 3 --balls 4 --order 4": "17f0a699aa5cddffbb3427fa05554b2837041436a0aba4452e7b78223593d75b",
    "moments --cells 5 --balls 6 --order 6": "fd96b9cdd7362f14ceff17645ad8bb470db61a0ff5d39cc35cae4b769e306be6",
    "moments --symbolic-n --balls 1 --order 4": "c7a0fe0b4e8c3235b4fdc62484ad25c2435a50dc7791c46be691e182e7856916",
    "moments --symbolic-n --balls 2 --order 4": "dfa0ed13d79527f8e50a158dc394b2c480fef314ccdcdaa635a3792eab266689",
    "moments --symbolic-n --balls 3 --order 4": "c347e373b0607b84596912d214f8720eadfeb1ab7e18819afac97c8ff6012c60",
    "moments --symbolic-n --balls 4 --order 4": "5175369a662f82dc6cee1fec50829d6bfe1b902080bb0826a99c68ab9bea0280",
    "moments --symbolic-n --balls 5 --order 2": "554d590aad0bed081b691a81dce73ab526c442f051d748db5f81848843eb2b13",
    "moments --symbolic-n --balls 7 --order 4": "68969541a0e86f345d642b4b403e90ed484e506c28ce618f14bab9dc95594ee3",
    "pgf --cells 3 --balls 4 --expand 6 --format json": "ea65a89085e3b25a3b7e34f369aa7935416b9fa9f1facece51f98ccc9dd5e13d",
    # The two LaTeX --expand digests pin the function line, as recorded
    # before, and then one P(k) line per term, each p/q of the text
    # rendering's lines written as \frac{p}{q}: they were rebuilt by hand
    # from the earlier outputs when --expand began printing in LaTeX.
    "pgf --cells 3 --balls 4 --expand 6 --format latex": "d7042175cbb380fbeb855c42435fa9d06c952179324a377262d06e5d8db06c26",
    "pgf --cells 3 --balls 4 --expand 6 --format text": "a3eff80c0119eb7607c5e55fb82f9fec32a29f9e70ac5928f001afc8cac19f1b",
    "pgf --cells 3 --balls 4 --format json": "db09d644baa3f24cd2fb964c0d016f90cd8749e394a567d0abf74fe7947af002",
    "pgf --cells 3 --balls 4 --format latex": "caa9d33eff24c2bd315b65d6bb7caa30d26178878128115ccca5653a1d439dce",
    "pgf --cells 3 --balls 4 --format text": "9e9665d843589bb792b649ffd3c205cf4214c9b4cd3af9bf9691e9a1a5f0106b",
    "pgf --cells 5 --balls 5 --expand 6 --format latex": "9866d4d7443d0b08f9f2ac59fe317ccc5aaeacbdff2ebca72b87fece0161ad27",
    "pgf --symbolic-n --balls 1 --expand 4": "91c68246d7e08a4ea15c599bd7700a30ea51eeebd1feea82719f0abd00c6b3d0",
    "pgf --symbolic-n --balls 1 --format json": "9d4e8b6b55bd9b8bf35c9e2610fefb633a337b3faedf4eef6facad063362a372",
    "pgf --symbolic-n --balls 1 --format latex": "73cb3858a687a8494ca3323053016282f3dad39d42cf62ca4e79dda2aac7d9ac",
    "pgf --symbolic-n --balls 1 --format text": "73cb3858a687a8494ca3323053016282f3dad39d42cf62ca4e79dda2aac7d9ac",
    "pgf --symbolic-n --balls 10 --expand 6": "94e744df848922b46feb37f502bf828d8c666f0c2ddb4ff8bd24dea17b27c8ea",
    "pgf --symbolic-n --balls 10 --format json": "2f8d0b11b084471148043fb91d244154dc76df011461f8a8689d736559cc867d",
    "pgf --symbolic-n --balls 10 --format latex": "b48f4940298bb21d8c0b7d464a80b226054df4373c92dd6a902d6df6e6176d4b",
    "pgf --symbolic-n --balls 10 --format text": "7dfd51ca64a8a3362ce6ace18ebee2d606fc7a3b75c4320333b40d852c8a1be8",
    "pgf --symbolic-n --balls 11 --format json": "3869f3b99fce9a3dfe4f7244846c6c2c4d92539cad4fa74aaa627718ba9d4c59",
    "pgf --symbolic-n --balls 11 --format latex": "34dc0cf4cefe40ced915fbbfccf7b73fb0052b6344a5c25d75ea28bbb8c69a42",
    "pgf --symbolic-n --balls 11 --format text": "59d3bc5477ae510fafafef39908bdd460bda0f9e3cd0110d6204cfea2fb3ef02",
    "pgf --symbolic-n --balls 12 --format json": "ac69b64b79f0cec0d41f70ce3c84278292725adf3d76d49c62b9ba93c1b6a340",
    "pgf --symbolic-n --balls 12 --format latex": "28d8b8be233742c38bb14b12e0a1171564fbc338b4ed87b6f1b96987386a2fec",
    "pgf --symbolic-n --balls 12 --format text": "980d6ffff4f302785d939e70350980587837762bd9571c99d7bd05ea120cacf7",
    "pgf --symbolic-n --balls 2 --expand 4": "8f0dd9b060b4e36822e113c56b9dff76e2c4bdc1ba819685591fc0161c4b3f4c",
    "pgf --symbolic-n --balls 2 --format json": "a45d9dc71e637e471ed8a2ae224c85b63024b066f914a2a10f7d7cbb3b7ae35d",
    "pgf --symbolic-n --balls 2 --format latex": "8770d9000eb04a3366c4a718e7d5e405e971914d364449abc3bded5eb8c94105",
    "pgf --symbolic-n --balls 2 --format text": "a8049e3746a8ff3cf30932ddec5a8b075d0c82686af4fd44675d57cd68c134da",
    "pgf --symbolic-n --balls 3 --expand 4": "fb76d48d1479f67d93ecdedcce278eb3fa3037e351b819d899183e7dc2ee6dee",
    "pgf --symbolic-n --balls 3 --format json": "0d1ed9eeba2aa8b503badc40df7ceb1857359e328e9f4335fd0ab69d666a98c6",
    "pgf --symbolic-n --balls 3 --format latex": "3185ed37ca852db45e03c79b7a89b7fb6cdacc5b3cc7c80e0c2254e8ee86f851",
    "pgf --symbolic-n --balls 3 --format text": "af512b1d1e2e5f39bdce6492975651c8a3635b659cb2efb6b33929e59a4f5d39",
    "pgf --symbolic-n --balls 4 --expand 4": "33ac6ba132336e6ab54434b5fb8a3a2ba7a4f4aa00e7ab127072c8297504eb6f",
    "pgf --symbolic-n --balls 4 --format json": "ac457dc69e1575aa1f02d1c9dc24de1e84dfe3697da33fb06807157e15816db6",
    "pgf --symbolic-n --balls 4 --format latex": "7cb20dfcb50432e145f755d89ce795c08ec6a35ac0684d06303a1ab3fd0be9c4",
    "pgf --symbolic-n --balls 4 --format text": "fab8b92da8da1af60338cff952298396449eeaf08108661903c6e160bf484e5e",
    "pgf --symbolic-n --balls 5 --expand 4": "430ef6bf1a0d1a0d147bb7374106e8e7925125bf1fd97dcbb1452f8ca69fb6be",
    "pgf --symbolic-n --balls 5 --format json": "0f172fa864dd850f43b5ffe18675111ad4526e46e801efc44858373b2057ee3a",
    "pgf --symbolic-n --balls 5 --format latex": "2e8940cd4c02dcd4b4cc9f5b8bdea83a1084054805d30b2f232486e85a781dec",
    "pgf --symbolic-n --balls 5 --format text": "af62bc31a95ef7de55411e24213e55104727476a74dfdec7793a983ce3a922b3",
    "pgf --symbolic-n --balls 6 --expand 4": "29354fbf6dd86ae875f3cebe55893c983a39b5b2856f91ec202bba5c4e6a16e3",
    "pgf --symbolic-n --balls 6 --format json": "71fcfd4b413f7164b7b5127c1c99b956a7003e62dad5b602fe5d4c917e7541de",
    "pgf --symbolic-n --balls 6 --format latex": "d9582d2e2b4f54051793bfc0c2a3a5ca4e4b2d8f9554e6bc99e902c120c917fa",
    "pgf --symbolic-n --balls 6 --format text": "ca19021bbebe1b1e193b866edc398efb0d0380e7934fc2335a3cff5a660ce3c8",
    "pgf --symbolic-n --balls 7 --expand 4": "a673c352f20a580242b0f515335a9c2f86106725306f692a07eb55b6cbc34333",
    "pgf --symbolic-n --balls 7 --format json": "1e2ef43bcbf36fbe040033626f80607662f0cc4eb973ddb8a0122febc6bb2456",
    "pgf --symbolic-n --balls 7 --format latex": "aa3763a64c834be7cea671e12bcddfdb16da1bfb886b568c94a19b63e907cbca",
    "pgf --symbolic-n --balls 7 --format text": "ee34ae1cbfecd74137cd736dfabc84ef70c760a513195eadd8ddab3834f4ffdb",
    "pgf --symbolic-n --balls 8 --expand 4": "5d7cc6a8a5fdc0bcc6ec343bddafd7416079658df1b83fe1be5ba6fbd2f662d7",
    "pgf --symbolic-n --balls 8 --format json": "57f2c3ddd94f7a57f7fd6f356383051db68c825d0376b5e6e0369b0adfc45f3a",
    "pgf --symbolic-n --balls 8 --format latex": "46d8489e6166d120853cf3a2f39ca81410fa01d2e9f2ef150374d8c5bae75be2",
    "pgf --symbolic-n --balls 8 --format text": "14e95c5469f850272d3386efe897b58d68f4bd5749b78a1d9747d9238df5817a",
    "pgf --symbolic-n --balls 9 --format json": "c6b1e8ffc0bd369fda8dd5a1016867d930d139ca9da7d500a3a3855b1de415b7",
    "pgf --symbolic-n --balls 9 --format latex": "961260c8169c821e49acaefb8f172b2834ffa1b8678cdf2b32b31b0a126f4163",
    "pgf --symbolic-n --balls 9 --format text": "7122bd5828eefedb722af85f74c74a54b528827c39df81c2fad4222225b3db4c",
    "simulate --balls 4 --cells 3 --trials 20 --seed 11 --verbose --gof": "4d64c801815047697c7ea14deafdf324f341032832026eea9d687af9ea5f6c5b",
    "simulate --balls 5 --cells 2 --trials 30 --seed 11 --verbose --gof": "4ca478ebdcc51eb65b3457835b8e4b23b67f65dc41746352553b5d5e7635f596",
    "simulate --balls 24 --cells 46 --trials 2000 --seed 1 --gof": "f3d5f0d164af236587d978067c176340a9d036089959d4b9d18c8b95ad766ea3",
    "simulate --balls 5 --cells 1000003 --trials 20 --seed 3": "b399983da21324346cb4e51882bde4d4334b9aad19323a5e2766769bdca790ed",
    "simulate --balls 12 --cells 23 --trials 500 --seed 5 --gof": "1e614b543d670548a53286498126f526851b1728256060919e1bb23ee36a137e",
    "simulate --balls 20 --cells 150 --trials 1000 --seed 8": "f58b456e7298ffc0f7f92ab54d5b27afcd3f4fc1b77c8a087030ed499bca4612",
    "simulate --balls 20 --cells 250 --trials 1000 --seed 8": "2060e64a9cce3af71979e5100b4e0a3112403f2eca776c9130ae59bdae4afc43",
    "simulate --balls 7 --cells 300 --trials 10 --seed 4 --verbose": "960df39ee5a21ff540c6e0791ef0357269a73ad72cdd1bbba9f2c42ac0d8ca7d",
    "simulate --balls 40 --cells 2000 --trials 10 --seed 4 --verbose": "5082c3c778ec9c862f459d8b842b83e34fab1682821975f1fbcad4234f83fab6",
    "simulate --balls 6 --cells 5 --trials 3000 --seed 2295574122455614247 --gof": "81a9d0a2003a420204aefe8df674964a05eb82003ede4b1b63263a90acc767ed",
    # A 257-term law that walks several horizon doublings, and a 129-term one.
    "simulate --balls 7 --cells 2 --trials 2000 --seed 1 --gof": "33e5df04b0351512aafbac550852d83002b21d26677080c17193e8335438cf76",
    "simulate --balls 10 --cells 3 --trials 2000 --seed 1 --gof": "469691f678b68b629478dace063e474c2ab3426e3cfe8647c3d338ce5f859081",
    "verify --suite paper --budget small": "a4a7896a706463b7ca50c78206684f7d717d48553596fc5ca245d7fea8f2716d",
}


# The envelope's timing_ms line, the one part of stdout that varies.
_TIMING = re.compile(r'^  "timing_ms": [-+0-9.eE]+,\n', re.MULTILINE)


def _digest(capsys, argv: str) -> str:
    assert cli.run(argv.split()) == 0
    out = _TIMING.sub("", capsys.readouterr().out)
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_symbolic_cli_output_is_byte_identical(capsys, argv):
    assert _digest(capsys, argv) == GOLDEN[argv]
