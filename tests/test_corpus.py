"""The verdict corpus: every pinned configuration's exit code and report digest.

Each case runs ``verify`` in-process with ``--report json`` and pins its
exit code and the sha256 of its JSON report with every ``ms`` key and the
top-level ``version`` removed.  The grid is every preset over q, fp:2,
fp:3 and fp:5 at family 2, clean and with ``--mutation-smoke``; the extra
rows are the configurations CI compares across hash seeds, and two
default-family mutation smokes.  A change that moves a report on purpose
re-pins only the cases it moves and bumps ``REPORT_VERSION``, which is
pinned once, below.

Group files are given by relative path, since the report's ``env`` names
the group as given: S5 from ``perfbench/s5.json`` at the repository root,
and S6 written to a temporary directory.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sepmonad import cli
from sepmonad.suite import REPORT_VERSION

ROOT = Path(__file__).resolve().parents[1]
S6 = {"permutations": [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]]}


def test_report_version_is_pinned():
    assert REPORT_VERSION == 3


def _stripped(x, top=True):
    if isinstance(x, dict):
        return {k: _stripped(v, False) for k, v in x.items()
                if k != "ms" and not (top and k == "version")}
    if isinstance(x, list):
        return [_stripped(v, False) for v in x]
    return x


_GRID = {
    # (preset, field): (clean exit, clean digest, smoke exit, smoke digest)
    ("c2", "q"): (
        0, "fc2db115159b9d9a39dd54b5387e70974b97d10394b6857b4b14195dffc93f9d",
        0, "4398721bd1a12fd2c95da4c29deac1bf5529112df046d59018f84835cc63c624"),
    ("c2", "fp:2"): (
        0, "0cc61055796b51f232a6dad4b4f824ecab9cfa9aae2c2235f857699a55f98ef6",
        0, "1589b3456990d7d51badf0bebf6a12e9ae209e456d2c6358d448a5f7fbe692f6"),
    ("c2", "fp:3"): (
        0, "2ca375a6c68e1ce2c47e105e8461293fd0a3cf56ea0e9f205ea4a80682393784",
        0, "b5dcdb1d968b374437ac8a2048e14db0dfbdd82d5a5b5bbbceb7e2ed99e7cbe3"),
    ("c2", "fp:5"): (
        0, "1aa5af20e05eb785266f28a816b48b6eed6db749de3f740432caf66f5c0c8baa",
        0, "696f60fc212ab340524afb25b282e2576d6040f83df7f8ef8ce2abcd3d5478c0"),
    ("c3", "q"): (
        0, "9c8cdf7e8f908a37425227db3ca7036dd428b0db442d6823d9752f27717af9ad",
        0, "3d71681c9b5e424e7b4f32bdfaa7254103eb12bd93aae5a4c4231b581ed4f3f0"),
    ("c3", "fp:2"): (
        0, "c86aef41bc0c15c0b652098983e97488f0421d94604384964bcbe87ec7931f47",
        0, "a2884c12b75717237d3caf56cc905fa6474b423221eb40b7bf7f0a6bdf520324"),
    ("c3", "fp:3"): (
        0, "6b5e6702d9a93be61451994d7e6be715d4ab6370c5cf8ea532e3c00e6902aa73",
        0, "330f9facadd92f65da48917a74717717294c3f1aa957c01a8a86d97db092bec9"),
    ("c3", "fp:5"): (
        0, "3053ce70601ad9fc11c2449b1f65eab012b15a2f66a8ac1f87d5c8ec71f5b3fb",
        0, "18069bd6be8264f4dca19192132725b5cab0d8741d81235bf4a9620b07e93229"),
    ("c4", "q"): (
        0, "0f5e3b934112d769c9763fba2921b838fdbc093365b432cb510be26be144c3b8",
        0, "a48bb91daf244053d753ae248c89f0e09f6c0cd4c9a620aa4da2ffc081ed06e8"),
    ("c4", "fp:2"): (
        0, "f06c95330a83b5f2bb3d822d6f51a8de862a2d7c867b368a0ad870a493d79731",
        0, "97f234a0ca06b4bfcb392ad6e88a38cd91cb98542358273188a7519a0c1aeda1"),
    ("c4", "fp:3"): (
        0, "e47006612dfe20d046fe7797a66aae834fe13350fce8c4c8f2b70b2bbdf17fee",
        0, "f3b54d2b839b754f1154cdf80274666eda50ae30c6c193b8217a2a6ce8326751"),
    ("c4", "fp:5"): (
        0, "5abade1ad6f346b5000349321a972162c3b5db77645c605e0e206fabcc0822dc",
        0, "cffa4cdef67afeeea1daafcbb240763301e5d7c259b3d0fa06cbc9eac5e6b6e5"),
    ("c6", "q"): (
        0, "ffa051a053ad94419c6125666593af3c47f4a6b8b1bef0730d1b96c712973640",
        0, "dbb314bef8094f59dd1561d058c24aef3fa1a3592112e32127ff771a07c48632"),
    ("c6", "fp:2"): (
        0, "617db10665fa8003d9ca6fbcda810552146981d6ed0e9bfc0849feb0c5834d00",
        0, "42a7fc6ab4cf7e113b948b30f9326d5e3114f35269fb22abfd4a2ff42bc35efa"),
    ("c6", "fp:3"): (
        0, "8f0e70ea92af9245d0f7b97e894f1a75d54d27dace01cfd6a9164a9c24bfd30c",
        0, "f19aedf58fb6efe65a993310fe27c42aae1d5eeca923ea966b44c797a6b81f1b"),
    ("c6", "fp:5"): (
        0, "66808f2602f17cef3a915130dd67b6c6e44082bec1f07694a7b8f823028f1b74",
        0, "ee4c0c84aa405667e1a876a890803d10a058f131a9153860983e4ddec9528f4e"),
    ("v4", "q"): (
        0, "8d1f25757eb7a7473e354e1ab513cf8d2c642131b16f4c701cc150203b690ba9",
        0, "81b1ba4898733a79c5311ef77426ec5a3928489c869a723cf7644d1238dcec69"),
    ("v4", "fp:2"): (
        0, "ef9666faf8e49d7034c6c97efa7f7e7c196fac460f38f5e963f22188fe33b50c",
        0, "f14ddbc1efb1c40fe75b9e19810909f96c5578c084e265ed2c56526b9ccd0a4b"),
    ("v4", "fp:3"): (
        0, "f9771be73c4b822b706bdd9ebff47bc16007040ac69d4135c204d2dcb642414e",
        0, "486801f4ec043ec4c99770973978711411b19edd452fb40416e04b3e6bb14377"),
    ("v4", "fp:5"): (
        0, "dc5e3f7bd048ce2b4474a900e80436f2566a9f7e29deee706490f2594ba345e4",
        0, "e6d231c945f4dee5cf4bfd99fad021b6c47fa2d1a1a9ac2935685178ceb4c98c"),
    ("s3", "q"): (
        0, "08f64a19094343648f3b31e97953c11a330984c760227dc5c60367adc7ee86a0",
        0, "93db04ca849af32cece383296bd9212d624521dcb9e72ff0e63932044d9ea1f9"),
    ("s3", "fp:2"): (
        0, "2e74db3f8f0dd04c3e171ab38b4c3662985ed5c56a67e51e4ad35e370a714d8b",
        0, "51ee29d7e861a9133e022b5b7b2d5d3c27784e6d19b0041b3098b788ac7fc4df"),
    ("s3", "fp:3"): (
        0, "0d088432ec2fc2483386cb964fc723de6f0011474297ac1781a678733f0a0222",
        0, "e8eef9a6819caed1b386c6e9391aa04613029cc5c9c78d1b6e990405a7e43c1e"),
    ("s3", "fp:5"): (
        0, "f69c074686fe6b28622850d2d23d9f81ec93bccb9bf03fc024e3ed7f1f34ef7c",
        0, "2ae72c9466815c4746fc9b5db97baf3ba53aacf9466b6d9c4dd2acfadfb975d9"),
    ("d4", "q"): (
        0, "5b41f94bdd3e22a5ddb180fe2428fcc3a7bf666cd65d2ead00a4d6a7fe7808df",
        0, "4428a074ddc862d01e42e72a315eb6cc7d71eaa0b6bf185d517e2dc37622fdca"),
    ("d4", "fp:2"): (
        0, "12d669598ade81ac9a1ba7a09202cbc83e2e7ea9f6fe7cab29deb68fb9efa98f",
        0, "1e78b2aada62a26fb82843cc383496ddb56c5cf4c6b536a039d995eb3ec2c36d"),
    ("d4", "fp:3"): (
        0, "44aeefe16fcc4b2045416493f15326f7f2acd7df2b846e61eda666aa16f5b971",
        0, "03d3d843e5a6c33c82b2708814dae908e709cce25cbdda05bc5f7d3c0feddae9"),
    ("d4", "fp:5"): (
        0, "701b780fbfeeb2367305bf24d260a0f18fc6801213619c0472309aa2483e2705",
        0, "5b366fb5f65bb1d04da23caa00cdbcc424a4f9f66f60f93c1982d087ca1196a5"),
    ("q8", "q"): (
        0, "d523d8e25116ed0e875cb465b2183d234b41a35ad9735f1a9ea64138f95728cf",
        0, "915763bf9220c26ce6053c4b0d046f24da8a637440ce4750f4c0c478c58ad28d"),
    ("q8", "fp:2"): (
        0, "b1086c6704e686afbe6549e620441c746fb2b92c54df64d2533394e4b6a0ec74",
        0, "97bd24080d169cb28459ad0e349fcaddb223a76f6c36df98eb01f2c0fc0de008"),
    ("q8", "fp:3"): (
        0, "d777928251a2212434304a17e967908915324d636378b5acacf7000103206a70",
        0, "bbba648fa4f10d7f8583409b68bc116e4dfbd41ca8e9c2fc4a4ab3e9bfa70ad7"),
    ("q8", "fp:5"): (
        0, "01b7ddfa37da0764913a1fee7b4cb5da5d846b917953b1465783404fdf7c6fda",
        0, "4db42ffde197a8d546249f91eff0ba95c74de1078bc451b4a7a5bd7e3fc311f8"),
    ("a4", "q"): (
        0, "85fb1bc2209fe5c041fb6c7d181cfd096a7e067f5f8ecc058939e9c4c8e01879",
        0, "ed73b52d2d460906fd6e459524f637b232b821c24be96a02a2f3ef10d0253819"),
    ("a4", "fp:2"): (
        0, "c6e4f9a7f9002a923ef9560ddb77a6d7405c135e039e934de3d7c9603e001095",
        0, "7d8f932c1e17c556178ddd22a1032217db299e8398c69e78b475dd87f12f3000"),
    ("a4", "fp:3"): (
        0, "3fe2a01f79a6703d77f242f75451d6ad50a191397c6b4b2bcf72afdd77c8b8d5",
        0, "9f4a6a8788e0e5caec7fc0084e4c8da0c9a7558d3b382aa3bf6d1d884e147d41"),
    ("a4", "fp:5"): (
        0, "a5e7256346c998682773e813880592f5b005f19dd4de0fc0a7355c59d3f61508",
        0, "be776c6b91dd62a7e3a774fe70851a9886b9c3353080866970e4b4e26b0722c1"),
    ("s4", "q"): (
        0, "2f895660a254444fda62592a0aff0ad6a51faecf8928fb23fe06514b883eeb97",
        0, "bcb45af84568aef1ee835bdaa7f7af67c6612b7402752c5152dd0a674f568d6f"),
    ("s4", "fp:2"): (
        0, "6a5879e78ff748dc11e028c8964738695de1b4a57e29ec503eb8dd36bad071cf",
        0, "2fe3ed87b226dad9160c4c3a95f46ff075821f5035c0a263f406a9328c3bf293"),
    ("s4", "fp:3"): (
        0, "1128ad730b8e5b6b2f90f6c00ee7644b5a73e5818f6c99b354976a22c0c154fe",
        0, "36eb4d5a6d727fad02ea49ded470b87ee2ae8063670ee6f9a54e9e0b3513499f"),
    ("s4", "fp:5"): (
        0, "722e5522c8c062de4f9fd863f9afab0d13e036431cfe031c00bdab8ceefa5d74",
        0, "e9b2c4d8420b606a0e927be0473612c8042df3b486fd4c299bc71737326aa1dc"),
}

_EXTRA = [
    # (id, argv, exit code, digest)
    ("s4-q-f10", ["--group", "s4", "--family-size", "10"],
     0, "e16e01f0690703b6d23d08c88cec75552069d5cd38dfdc516cb49aa413c624c0"),
    ("s4-fp:3-f10", ["--group", "s4", "--field", "fp:3", "--family-size", "10"],
     0, "e27a0cbae20b2c0c27239768727708452c35a51f68e6996fc9d668ea10bb6505"),
    ("s4-fp:2-f3", ["--group", "s4", "--field", "fp:2", "--family-size", "3"],
     0, "d2e17bcfab73b9811f9b2c2e57b2b7f5853b98b8bbe8e93e5d2e9de4435de607"),
    ("s5-2,46-f2-smoke", ["--group", "perfbench/s5.json", "--subgroup", "2,46",
                          "--family-size", "2", "--mutation-smoke"],
     0, "8367d29904110cadcfd77cd2592bd8c62f115671555b3e6026bcedb3589656f4"),
    ("s5-2,63-f2-smoke", ["--group", "perfbench/s5.json", "--subgroup", "2,63",
                          "--family-size", "2", "--mutation-smoke"],
     0, "f9ae2d27baf4577e6de75d211af8b240fdd2f2766170732740d50611b5b325ec"),
    ("s6-117,106-f2", ["--group", "s6.json", "--subgroup", "117,106", "--family-size", "2"],
     0, "a0f6ef61e9055d9001d8001e1fae9d00e4e028aa2488ca2d0f7e2f15199bd675"),
    ("s3-q", ["--group", "s3", "--field", "q", "--mutation-smoke"],
     0, "eb9b2eda5f4c0637372bd32a1ec12b7d5ee30417428daae7278fec1b83497fba"),
    ("q8-fp:2", ["--group", "q8", "--field", "fp:2", "--mutation-smoke"],
     0, "335af6129e6a90899b731ba7beec73f0fe6b7d9f6720b5fca7f063926a797e0d"),
]


def _cases():
    for (group, field), (code, digest, smoke_code, smoke_digest) in _GRID.items():
        argv = ["--group", group, "--field", field, "--family-size", "2"]
        yield pytest.param(argv, code, digest, id=f"{group}-{field}-f2")
        yield pytest.param(argv + ["--mutation-smoke"], smoke_code, smoke_digest,
                           id=f"{group}-{field}-f2-smoke")
    for case_id, argv, code, digest in _EXTRA:
        yield pytest.param(argv, code, digest, id=case_id)


@pytest.mark.parametrize("argv,code,digest", list(_cases()))
def test_report_is_pinned(tmp_path, monkeypatch, capsys, argv, code, digest):
    if "s6.json" in argv:
        (tmp_path / "s6.json").write_text(json.dumps(S6))
        monkeypatch.chdir(tmp_path)
    else:
        monkeypatch.chdir(ROOT)
    got = cli.main(argv + ["--report", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == REPORT_VERSION
    text = json.dumps(_stripped(report), indent=2)
    assert (got, hashlib.sha256(text.encode()).hexdigest()) == (code, digest)
