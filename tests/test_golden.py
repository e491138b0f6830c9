"""CLI and demo outputs pinned by digest.

Each case runs ``commrep.cli.main`` in process and pins its exit code and
the sha256 of its standard output, so a change that alters one byte of a
pinned output fails here.  The cases cover every command on the worked
examples ``div52``, ``B`` and ``B7`` and on ``Bk``, which is ``B`` plus the
point (0, 0, k) -> 0, in json and table format.  The property and
equality commands are also pinned on the encodings in ``fixtures/``, each
of which violates a property (hc1, hc2, hc7 or hc8), so their witnesses
are pinned too.  The representation commands are pinned on hyperplane
antichains in two to four dimensions and on one moved up by 2^60, and
``check-complete`` is pinned on point sets that differ from ``complete``'s
output by one point.  A digest is updated only for an intended change of
output.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from commrep import INF, ExtRep, Rep, chain
from commrep.cli import main
from commrep.commutator import example
from commrep.io import extrep_from_doc, extrep_to_doc, rep_to_doc
from util import hyperplane

DEMOS = Path(__file__).resolve().parents[1] / "demos"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _rep(name: str) -> Rep:
    if name in ("div52", "B", "B7"):
        return example(name)[1]
    lat, b = example("B")
    return Rep(lat, 3, list(b.points) + [((0, 0, int(name[1:])), "0")])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def _cli_digests(capsys, tmp_path, name, fmt):
    rep = _rep(name)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_to_doc(rep)))
    src = ["--rep", str(rep_path)]

    # inputs of check-complete and from-equalities, always json
    ext_path = tmp_path / "ext.json"
    ext_path.write_text(_run(capsys, ["complete", *src])[1])
    eqs_path = tmp_path / "eqs.json"
    eqs_path.write_text(_run(capsys, ["to-equalities", "--reduced", *src])[1])

    cases = {
        "canonical": ["canonical", *src],
        "complete": ["complete", *src],
        "check-complete": ["check-complete", *src, "--extrep", str(ext_path)],
        "props": ["props", *src],
        "admissible": ["admissible", *src],
        "to-equalities": ["to-equalities", *src],
        "to-equalities --reduced": ["to-equalities", "--reduced", *src],
        "to-extended-equalities": ["to-extended-equalities", *src],
        "from-equalities": ["from-equalities", "--equalities", str(eqs_path)],
        "learn": ["learn", "--oracle", str(rep_path)],
    }
    for alpha in rep.lattice.names:
        cases[f"sublevel {alpha}"] = ["sublevel", *src, "--alpha", alpha]
    if name == "div52":
        cases["eval 30,20"] = ["eval", *src, "30,20"]
        cases["eval-ext 29,inf"] = ["eval-ext", *src, "29,inf"]
    out = {}
    for key, argv in cases.items():
        code, text = _run(capsys, argv + ["--format", fmt])
        out[key] = (code, _digest(text))
    return out


def _hyperplane_rep(name: str) -> Rep:
    # "hd-s": hyperplane(d, s) -> 0 over the 2-chain; "hd-s+2^60": the
    # same points moved up by 2^60, valued 0 or 1 in the 3-chain by parity
    shape, _, moved = name.partition("+")
    d, s = map(int, shape[1:].split("-"))
    if not moved:
        return Rep(chain(2), d, [(x, 0) for x in hyperplane(d, s)])
    return Rep(chain(3), d, [
        (tuple(c + 2**60 for c in x), i % 2) for i, x in enumerate(hyperplane(d, s))
    ])


def _hyperplane_digests(capsys, tmp_path, name, fmt):
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_to_doc(_hyperplane_rep(name))))
    src = ["--rep", str(rep_path)]
    ext_path = tmp_path / "ext.json"
    ext_path.write_text(_run(capsys, ["complete", *src])[1])
    cases = {
        "canonical": ["canonical", *src],
        "complete": ["complete", *src],
        "check-complete": ["check-complete", *src, "--extrep", str(ext_path)],
    }
    return {
        key: (code, _digest(text))
        for key, argv in cases.items()
        for code, text in [_run(capsys, argv + ["--format", fmt])]
    }


def _check_complete_digests(capsys, tmp_path, name, fmt):
    # complete's output plus one graph point beyond every finite
    # coordinate (still complete), and without its last point, a critical
    # point of each of these inputs (no longer complete)
    rep = _hyperplane_rep(name) if name.startswith("h") else _rep(name)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_to_doc(rep)))
    src = ["--rep", str(rep_path)]
    comp = extrep_from_doc(json.loads(_run(capsys, ["complete", *src])[1]), rep.lattice)
    edge = 1 + max((c for v, _ in comp.points for c in v if c != INF), default=0)
    extra = (edge,) * rep.dim
    sets = {
        "check-complete +1": comp.points + ((extra, rep.eval(extra)),),
        "check-complete -1": comp.points[:-1],
    }
    out = {}
    for key, points in sets.items():
        ext_path = tmp_path / "ext.json"
        ext_path.write_text(json.dumps(extrep_to_doc(ExtRep(rep.lattice, rep.dim, points))))
        argv = ["check-complete", *src, "--extrep", str(ext_path), "--format", fmt]
        code, text = _run(capsys, argv)
        out[key] = (code, _digest(text))
    return out


def _failing_digests(capsys, name, fmt):
    src = ["--rep", str(FIXTURES / f"{name}.json")]
    cases = {
        "props": ["props", *src],
        "admissible": ["admissible", *src],
        "to-equalities --reduced": ["to-equalities", "--reduced", *src],
        "to-extended-equalities": ["to-extended-equalities", *src],
    }
    return {
        key: (code, _digest(text))
        for key, argv in cases.items()
        for code, text in [_run(capsys, argv + ["--format", fmt])]
    }


# exit code and sha256 of stdout, per input, format and command
GOLDEN_CLI = {
    ("div52", "json"): {
        "canonical": (0, "bf2c736f21f04269f6368b44ebaf21a112f8b75fff030ab1590c940d5d7d4e5a"),
        "complete": (0, "79a2742103ae7fafbd67d7ad6d7f2aa506945cacc180b87caed666bb5c1b736b"),
        "check-complete": (0, "ad1ed6243ea081e7d97d9e7bf7443870a40e1ea693c6c7fb4a35354451f1de93"),
        "props": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "admissible": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "to-equalities": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "to-equalities --reduced": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "to-extended-equalities": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "from-equalities": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "learn": (0, "9b26b437f500eb143d366fdbe1985a433ac419168cec2c4d58b8df82c62c4886"),
        "sublevel 1": (0, "8e28473d7647417d7efe8fe31a87bb53e1f577925fc690cdcc7cbefea5d32ae7"),
        "sublevel 2": (0, "37079845348b22d05b94cf0d0726a594ed20ab2436176d2bf4feb875f10a701f"),
        "sublevel 4": (0, "4b8ab16e4a53efb0e3bd800e52d4c30c936319ffd11d5045eb44f1657add4fd0"),
        "sublevel 13": (0, "e02b084d2d856dd8ec29e1a81d08bccca014311675a27f2ecd4c7f107f32132d"),
        "sublevel 26": (0, "5aa6b9938acc788bd70718f58b5760d4ed896555ecb229908954544dcd49d2d2"),
        "sublevel 52": (0, "b97761dd2e3650cb49f1f71504722890551eb9509438481e8b3495e1b8dacc66"),
        "eval 30,20": (0, "46d1c0ad510a6c8bef153c854e60a0d9cd06933f6334dd48cca2fdde0bb2c1ad"),
        "eval-ext 29,inf": (0, "c810ae55490505015d9df873d9bced3684462a77300c1de4f973bddf4d0e5cfb"),
    },
    ("div52", "table"): {
        "canonical": (0, "65277cdbfdabd02d460db59cb452f97c31f914166ca04444382475872d7ee841"),
        "complete": (0, "23bc315058393dd8b765f480e60ca2a8a26c834444add0d457502ad46b57c7e6"),
        "check-complete": (0, "70601edaa751e402eb3c0e8066abc5ad3539f4a1508d89daa842762b093a3203"),
        "props": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "admissible": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "to-equalities": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "to-equalities --reduced": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "to-extended-equalities": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "from-equalities": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "learn": (0, "7c165432f38e3bef5bc8d29dedd5179839922af2b07bc09f52bbf5f2d9604637"),
        "sublevel 1": (0, "18199d20c6342bb809c8a1b47843e571a1a222f968fc209d4ebf18a4cac331f0"),
        "sublevel 2": (0, "ad7ad3ec487c9afac087905f40e00776bc8ae47d381783f4b7c90be0036fec44"),
        "sublevel 4": (0, "b195ec65f085aa5150b9b039cf2d32eea592c9697bd3d3a0782f3c436cd3e026"),
        "sublevel 13": (0, "18199d20c6342bb809c8a1b47843e571a1a222f968fc209d4ebf18a4cac331f0"),
        "sublevel 26": (0, "ace8676585b00190fca406f62f64c82812c52f18256db72b84ec75890cd55746"),
        "sublevel 52": (0, "2a466f35f011ab2b3611679c81a0adeeb7f4062060bf5a177ce4eb22320bcc40"),
        "eval 30,20": (0, "1c7bd2cc23bb4255628d3672883cea5062b9f209b66a9a61f37f3cd18e8f3916"),
        "eval-ext 29,inf": (0, "db57be3a4c064a838d3061e984adadeefddddd77f1f33e9b704ed83c0bf666d7"),
    },
    ("B", "json"): {
        "canonical": (0, "5f3e43dca67ba83cedd8d2f4997c80a8aa04425b8884b8025321e3d75472262f"),
        "complete": (0, "1d98965f304f72023a4e8077b412d09e858020a200634ab9cebbc158c4cad3b4"),
        "check-complete": (0, "ad1ed6243ea081e7d97d9e7bf7443870a40e1ea693c6c7fb4a35354451f1de93"),
        "props": (0, "cd04ee30aed25e0b6ee08b7a4f7346e0a2761528954154c053ede23b4fc3be5f"),
        "admissible": (0, "da84a58a1692f14e98f9dc42aa74a9c64d329fc752a152052f25fce02ca03c5a"),
        "to-equalities": (0, "a3c619f9455f6a112bf6608e9affdc667f53dbc185a67f6a1f1aa696e0ad2a2b"),
        "to-equalities --reduced": (0, "de53353dcdfa470151392f55d2fbf44fcb1428520abcbdeec23262bf1aede926"),
        "to-extended-equalities": (0, "619bd1a106243e7fea4e2ea86205e0156c404dd9c6528d3ca94bb1a2f366007b"),
        "from-equalities": (0, "305685b26ac88bbfd5ecbc8d3fa87cb4748f254e6c70f4b1fb39d74244684cda"),
        "learn": (0, "34e45b27d35e55a043ebcb1d9f853d24cecef0a106b37a96b43719080d1ce01c"),
        "sublevel 0": (0, "71947e402c3b2150fedcb0a933962c16091d146d33af3d63df3dd634dd79911e"),
        "sublevel alpha": (0, "3fc99385fd6051f206badc4a8ce6c5443382a86b479628c2ba97cc28bb7ef573"),
        "sublevel 1": (0, "d80e6ea7e29c0678d38f76895d41aa35dc63d2d82732e3c2c6ac10cff69f06e0"),
    },
    ("B", "table"): {
        "canonical": (0, "940e4934c41427999ee10ae3861be3d903e7f54852c79d05bf5c420ab6a5ab73"),
        "complete": (0, "ad6e1da2374f60b5fc3fb1d8edc86c0137dbab3b23efc71e445ed6a284bc36d7"),
        "check-complete": (0, "70601edaa751e402eb3c0e8066abc5ad3539f4a1508d89daa842762b093a3203"),
        "props": (0, "0e38fbef39062bdfa5eb7a8083554e3cb985fb7857835bfcd5d27c32c5ba74e6"),
        "admissible": (0, "48aa477656a03a57525a280eaa36b4900c4e4e5d727a0fc0e6b485332cc3e26c"),
        "to-equalities": (0, "34eff60f998251b291518a76aa261864064e424dda16a27ad4bd6fcc76537b54"),
        "to-equalities --reduced": (0, "d8aac4da71364d354596c7d306f59e0cdce0f5d6d72f1173135baab729be3e25"),
        "to-extended-equalities": (0, "149541495fb84cab615ced8a6289128f06b2727d535fdd6926ece69c8daff201"),
        "from-equalities": (0, "67465bbbd331bda39cc56ce2305e9b5e8509906924d78b4c55ef48b2ddb766df"),
        "learn": (0, "0388f98522ec806a8d0506233d9af7fad62bb2da8cc9efdd3d1d36be02d9c8fd"),
        "sublevel 0": (0, "5c4001d4a63286ef30296ca85f172ab427b16ef6e014d79dcca87267ba1a2196"),
        "sublevel alpha": (0, "e93e3233cc3de62a8ba408369a4f9c3b252f0dd48f46b4c47ae952302b02baa6"),
        "sublevel 1": (0, "25d1c8867c8a858c7b7c96f8f7b0a590e33160ceffd4980843de0513e3c1de3a"),
    },
    ("B7", "json"): {
        "canonical": (0, "52ee5065dfe42aec396d404322cc59a5113d0968a6c2cfe88275855a4a0a8c62"),
        "complete": (0, "9584edfd05bd54f6a94b11eec4d37ebc27e1773ea4daee0a13e44372431b8e23"),
        "check-complete": (0, "ad1ed6243ea081e7d97d9e7bf7443870a40e1ea693c6c7fb4a35354451f1de93"),
        "props": (0, "cd04ee30aed25e0b6ee08b7a4f7346e0a2761528954154c053ede23b4fc3be5f"),
        "admissible": (0, "da84a58a1692f14e98f9dc42aa74a9c64d329fc752a152052f25fce02ca03c5a"),
        "to-equalities": (0, "f9596f114d006d49ca0a96cb60721490d0a56a4cb9b5f2ee068f85700cd1bcd3"),
        "to-equalities --reduced": (0, "6f7f940e8f46a584584e1ad9a2f54816d8ef28826cd972a2ba6bc7c3aaab9888"),
        "to-extended-equalities": (0, "89130374b7a06e5f9a80ca81fc0fdc1d72abb1e8d9355f72b0c3b5fd2e6e6aec"),
        "from-equalities": (0, "3b4303e762314e07f0ddcfc76c606d814f2246fd6f10714ab8066dbf1fb0b2f5"),
        "learn": (0, "8f3b2fa14c5bbef3143315de71342e27645cb2117aed4f512e693e4d3d4b4f61"),
        "sublevel 0": (0, "64056ec2e340c7cfd3ad79de2ec058ca1dad4c58f826ff6894ac32d3cd08331d"),
        "sublevel alpha": (0, "3fc99385fd6051f206badc4a8ce6c5443382a86b479628c2ba97cc28bb7ef573"),
        "sublevel 1": (0, "d80e6ea7e29c0678d38f76895d41aa35dc63d2d82732e3c2c6ac10cff69f06e0"),
    },
    ("B7", "table"): {
        "canonical": (0, "9e10efa1ad41bb935019ec61d0aa0106664dc8f98e3bbea3c557b234a4d8ce64"),
        "complete": (0, "0beddb3c5a7f0b318822636830b6a57cebf885ebf81a9824547a3bb3a0f22819"),
        "check-complete": (0, "70601edaa751e402eb3c0e8066abc5ad3539f4a1508d89daa842762b093a3203"),
        "props": (0, "0e38fbef39062bdfa5eb7a8083554e3cb985fb7857835bfcd5d27c32c5ba74e6"),
        "admissible": (0, "48aa477656a03a57525a280eaa36b4900c4e4e5d727a0fc0e6b485332cc3e26c"),
        "to-equalities": (0, "12db73a20daae1869694a07936ff5d8d36826b832d4dcf936d06a0abaa4baa30"),
        "to-equalities --reduced": (0, "9aa4fd3a91000573c7e57eb0b8e0af5676eec84bfad4220d8a121d77bc709a70"),
        "to-extended-equalities": (0, "13b7954e6ca49e1dc5576b1ce2c71c27ec4f79d1b11f95f578da68c873e8892e"),
        "from-equalities": (0, "0ac9df5f81b6908bf3304c0afce69dc4e0f978759bfde0b9aaa21e7b09249046"),
        "learn": (0, "81686802109d55dcadf400d1c7d3e664e8b4eecfd399fd0863ded94c635bc70d"),
        "sublevel 0": (0, "3fed986a397b4421b0caa7c8e73ad855d7052bf4863e40b77a5a5ec569ea38ab"),
        "sublevel alpha": (0, "e93e3233cc3de62a8ba408369a4f9c3b252f0dd48f46b4c47ae952302b02baa6"),
        "sublevel 1": (0, "25d1c8867c8a858c7b7c96f8f7b0a590e33160ceffd4980843de0513e3c1de3a"),
    },
    ("B10", "json"): {
        "canonical": (0, "1dce475329b03f3c279561e625cb7f29348f339797d845ee0eb9ca913c39af6a"),
        "complete": (0, "ffc0bd237b4364b40308cefeb1886a889c59efd5057cfc951e57639a16f6d1d2"),
        "check-complete": (0, "ad1ed6243ea081e7d97d9e7bf7443870a40e1ea693c6c7fb4a35354451f1de93"),
        "props": (0, "cd04ee30aed25e0b6ee08b7a4f7346e0a2761528954154c053ede23b4fc3be5f"),
        "admissible": (0, "da84a58a1692f14e98f9dc42aa74a9c64d329fc752a152052f25fce02ca03c5a"),
        "to-equalities": (0, "df74edd0d6251b41ae95b02c291b1ba841dd74d1c6e6e59a8ef772f22d501b6e"),
        "to-equalities --reduced": (0, "5d4dc4eb976eee58f069f8dbbbcc91a7699e158318c750e436e623c14cd44d3c"),
        "to-extended-equalities": (0, "722442636dede6022163c27c9cd6662397150f8aa070d1214b6864b3dab9f9dd"),
        "from-equalities": (0, "b673dd08fb7e2cdb43381e0c95704131d7ea9bd0abb618217de1de9fde27a8fa"),
        "learn": (0, "84cb0231557e05fe3d33705b40e1ca0d566ebfc5d31dd08f40758cc37d03f57a"),
        "sublevel 0": (0, "1885bec37f7b2d7a75d77255813d3a83d954a7ef3478c423523e176eb289890a"),
        "sublevel alpha": (0, "3fc99385fd6051f206badc4a8ce6c5443382a86b479628c2ba97cc28bb7ef573"),
        "sublevel 1": (0, "d80e6ea7e29c0678d38f76895d41aa35dc63d2d82732e3c2c6ac10cff69f06e0"),
    },
    ("B10", "table"): {
        "canonical": (0, "dcc9380c433f07887f8cbbdbf7d9b6a7bc7957f360a86f735017592aa009bfd2"),
        "complete": (0, "fa614355a97679543558df1974f77e3b486133824836f94ffc3682d3f609e335"),
        "check-complete": (0, "70601edaa751e402eb3c0e8066abc5ad3539f4a1508d89daa842762b093a3203"),
        "props": (0, "0e38fbef39062bdfa5eb7a8083554e3cb985fb7857835bfcd5d27c32c5ba74e6"),
        "admissible": (0, "48aa477656a03a57525a280eaa36b4900c4e4e5d727a0fc0e6b485332cc3e26c"),
        "to-equalities": (0, "9e140efa534551a12fb3e9b4974204770e564a602ac4f9e03c0bb8538db43780"),
        "to-equalities --reduced": (0, "4309463a2c99cd06f572e3583750bc1a40bc7e7aaef00b53e482482d9a384b7d"),
        "to-extended-equalities": (0, "35d60bf2142d46ce539490424fa6e7db0fa2c729f6d09cfea53072e2321dde76"),
        "from-equalities": (0, "9f716c28531c41c5b0cbcde7812c0f9c00d06d074f564a57a98c9ef7864a8bf3"),
        "learn": (0, "2086580ad29c6b10ea50075e5fd0ca23d33a274b35daaf977f83fa5e3715a73b"),
        "sublevel 0": (0, "9c5ac40e63d846577fb06b5bbbaaaa8708a3403f6541e4221dccb57e40ecdfe4"),
        "sublevel alpha": (0, "e93e3233cc3de62a8ba408369a4f9c3b252f0dd48f46b4c47ae952302b02baa6"),
        "sublevel 1": (0, "25d1c8867c8a858c7b7c96f8f7b0a590e33160ceffd4980843de0513e3c1de3a"),
    },
    ("B1000", "json"): {
        "canonical": (0, "6a55b4e4db3cff6f7c8ecd251bf59950375e4790fd2e046057c9784167ec1ec4"),
        "complete": (0, "10d42660944a910b26a9d3a0238a51a8ea56290198984646236bad87e9996f78"),
        "check-complete": (0, "ad1ed6243ea081e7d97d9e7bf7443870a40e1ea693c6c7fb4a35354451f1de93"),
        "props": (0, "cd04ee30aed25e0b6ee08b7a4f7346e0a2761528954154c053ede23b4fc3be5f"),
        "admissible": (0, "da84a58a1692f14e98f9dc42aa74a9c64d329fc752a152052f25fce02ca03c5a"),
        "to-equalities": (0, "b32beafdc4b8ff53e5e109116dbfd13db5c0662a670cababadf8b9dc63b323ab"),
        "to-equalities --reduced": (0, "0acf6d501c835325bcc09473476f2fa8e70d1457d75108a5b5c0b849628e13bb"),
        "to-extended-equalities": (0, "4679f0318e8966937d885005a56c2515b7bb229de6d80577d9da686915fff953"),
        "from-equalities": (0, "1302524d66a4844dbb37f7c8cd8b6042f4defde50cff2ee15d415e57b9a3b93a"),
        "learn": (0, "4d53489d579333a5d0b5bcb8c707ac329558802632c097c0c8c54a455a252cb2"),
        "sublevel 0": (0, "4c00c2f0283511c90cb6a91b5e0719c7fda8c3ebecd00f0f8f69a40b2a3dd73e"),
        "sublevel alpha": (0, "3fc99385fd6051f206badc4a8ce6c5443382a86b479628c2ba97cc28bb7ef573"),
        "sublevel 1": (0, "d80e6ea7e29c0678d38f76895d41aa35dc63d2d82732e3c2c6ac10cff69f06e0"),
    },
    ("B1000", "table"): {
        "canonical": (0, "c10b46d63b42b38c17d1b6c7bc9dd28929a2fac45a023f5146f9fd6546a5d0e3"),
        "complete": (0, "872bf1dbd5a4f9a011b1c96795be6398f126c68caa6041f52da699e5e376aa97"),
        "check-complete": (0, "70601edaa751e402eb3c0e8066abc5ad3539f4a1508d89daa842762b093a3203"),
        "props": (0, "0e38fbef39062bdfa5eb7a8083554e3cb985fb7857835bfcd5d27c32c5ba74e6"),
        "admissible": (0, "48aa477656a03a57525a280eaa36b4900c4e4e5d727a0fc0e6b485332cc3e26c"),
        "to-equalities": (0, "f31ae066a2c21d6149af6700a576e1e863e2349d8399b02b60e98c4a8007de29"),
        "to-equalities --reduced": (0, "34d577b3db2d63e41b4115feab5a6ae5c3bc69a34db5b76f643a8e5635320487"),
        "to-extended-equalities": (0, "8faad79e1991645f9ce7cd9a2de7c9522dc090d4ec88558420db86c7f659d3fd"),
        "from-equalities": (0, "8127efac961fa2c98694b9ebf02f0662bd938f6262fe5c584c0fd2cd19f36365"),
        "learn": (0, "44618396f6144abec83697c4a019941c14251960e500fb915e725eae6ed4d144"),
        "sublevel 0": (0, "c2adaf394c0e6423c8abb66f918411b0d5cb12b11349cdd21d30dddf371d8889"),
        "sublevel alpha": (0, "e93e3233cc3de62a8ba408369a4f9c3b252f0dd48f46b4c47ae952302b02baa6"),
        "sublevel 1": (0, "25d1c8867c8a858c7b7c96f8f7b0a590e33160ceffd4980843de0513e3c1de3a"),
    },
}

# the same for the encodings in fixtures/, found with the brute-force
# oracles of util.py: bool4_diamond is unit(4, top) -> 0 over bool4 and
# fails hc1, hc2 and hc7; fails_hc1 (bool4) fails hc1 alone; fails_hc2
# (bool4) fails hc2 and hc7; fails_hc8 (n5) passes hc1 and hc2 and fails
# hc7 and hc8
GOLDEN_FAILING = {
    ("bool4_diamond", "json"): {
        "props": (0, "7bf861a806fe64e7a6e8e38e0bf591786ea21071736fd7f5ed57c7b5777c57bc"),
        "admissible": (3, "6fb55211f86e30613ff052cf38e21514c69efcb4b2f65980dd69bce5aca0e411"),
        "to-equalities --reduced": (0, "1ddebda0368e567492b83f2c64e42b32920fd81ab7c0fb2245e51c9f354283c6"),
        "to-extended-equalities": (0, "41423b02e7370b75a9a25ae027c928d44d7dd71abe9c5d35b6c7cd1728e1d4bf"),
    },
    ("bool4_diamond", "table"): {
        "props": (0, "c423920c338396a1042ce7078de5ae388e51f7ba13626c5830bba62707e429a4"),
        "admissible": (3, "e761973430789d0d926710a38f529723bd605f6836668e3278f7fc231bb4e3ba"),
        "to-equalities --reduced": (0, "e4642b6d2426a7a1d67aee005160f3d7600ecc5f1254deb4e3d528b5ad632722"),
        "to-extended-equalities": (0, "2f2fb9a7a2bf0612bd137cb43d898627fab8afff4bad74e217c4f23e7c809118"),
    },
    ("fails_hc1", "json"): {
        "props": (0, "261352fe22174256ce224745cfad669131dcc1a69c1b68d05863caa58ab47d76"),
        "admissible": (3, "6fb55211f86e30613ff052cf38e21514c69efcb4b2f65980dd69bce5aca0e411"),
        "to-equalities --reduced": (0, "e34103ccb81006f2d5c4299061066b8a222f6e2fb6e42e6a07c208bad0452626"),
        "to-extended-equalities": (0, "6308b14470ff683bb139d46599038c70009b53b5d8ef5e55974300acbc9076e2"),
    },
    ("fails_hc1", "table"): {
        "props": (0, "85bf5b224a0bea53a66c49f44de74baeed7cb5417ecbc430b1ef639e6ca74b13"),
        "admissible": (3, "e761973430789d0d926710a38f529723bd605f6836668e3278f7fc231bb4e3ba"),
        "to-equalities --reduced": (0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
        "to-extended-equalities": (0, "b8c58aa961c11a9de1d91ae7c8225df2c605b77254ae83bf99ed177f1492318b"),
    },
    ("fails_hc2", "json"): {
        "props": (0, "31a1bf19a3cafeeba2fe2d0812c3d395cef31add3dd19813aae17670447261fd"),
        "admissible": (3, "6fb55211f86e30613ff052cf38e21514c69efcb4b2f65980dd69bce5aca0e411"),
        "to-equalities --reduced": (0, "86457cad08d0bbe0cd749dad7b43b11d427235ab7c04e3253bec797ada1f137c"),
        "to-extended-equalities": (0, "19f0b7bf4988ec0ba62c41cd4ac571173125d11ba9e911f49a0b42f80f060b9a"),
    },
    ("fails_hc2", "table"): {
        "props": (0, "b2a0c2c14a09ab63dfbbc85570b7a909a586a1f3d7cafe79359d8c48e70e2ed4"),
        "admissible": (3, "e761973430789d0d926710a38f529723bd605f6836668e3278f7fc231bb4e3ba"),
        "to-equalities --reduced": (0, "95c0a262b09c06ae5b97efad854d5ff16d143681410ab8141c2d09d1330c5fcf"),
        "to-extended-equalities": (0, "a367d6239903e24ce418300dea20829a547235bfcd5070506f1da2cb8a322757"),
    },
    ("fails_hc8", "json"): {
        "props": (0, "216da9bf1247a1198f1ddd7eec484ec34b439933207c4417f6e4dee61c69a7c8"),
        "admissible": (3, "6fb55211f86e30613ff052cf38e21514c69efcb4b2f65980dd69bce5aca0e411"),
        "to-equalities --reduced": (0, "1c2128914d74e6bcb0797f26ff9c92e77802981b083a4a46c5f2d7d174802dca"),
        "to-extended-equalities": (0, "d1401972ce03e99165f67fe4b987ac3120b3c5245c63fc9e005f9d9d64d382a3"),
    },
    ("fails_hc8", "table"): {
        "props": (0, "a8ff6fef002f644cf9f7b4b71f54b6aaa8ff4570236668bfb07174739b24bab5"),
        "admissible": (3, "e761973430789d0d926710a38f529723bd605f6836668e3278f7fc231bb4e3ba"),
        "to-equalities --reduced": (0, "74f52b7dd85b587207762ff5ba5ce3ec5be7e8672512791d2f4b8153133e5836"),
        "to-extended-equalities": (0, "a1dd09c3f167c9e161f6c29eee837384e1cb20c472dac1f8a30bda5167ca86c1"),
    },
}

# the same for the representation commands on hyperplane antichains
GOLDEN_HYPERPLANE = {
    ("h2-9", "json"): {
        "canonical": (0, "3dbb7a8840f5f8f9173420b51a8a66434cf120a938e57d98f749bd1988629743"),
        "complete": (0, "3dbaef50c7880d1f9ccb39dd487d800fc13d20d199a142675d10c86dfde1771d"),
        "check-complete": (0, "ad1ed6243ea081e7d97d9e7bf7443870a40e1ea693c6c7fb4a35354451f1de93"),
    },
    ("h2-9", "table"): {
        "canonical": (0, "0cd6b0030fb5c1250dd13c39415b515ff17d4c43d25dc9cef5c8700e146d28a0"),
        "complete": (0, "da53d1f622ea5f6c55e3a03af34e9fed3854e3b9ecf8f87b630ce70bdf449f70"),
        "check-complete": (0, "70601edaa751e402eb3c0e8066abc5ad3539f4a1508d89daa842762b093a3203"),
    },
    ("h3-6", "json"): {
        "canonical": (0, "fea27462beb2d4ed3f788767c49754500274444a9dc2d98ba69ab502bb7292ce"),
        "complete": (0, "cf4c8d71513fcee60b30ce90c237c569a1130ec6e6b26d51e569c6d0ad1df355"),
        "check-complete": (0, "ad1ed6243ea081e7d97d9e7bf7443870a40e1ea693c6c7fb4a35354451f1de93"),
    },
    ("h3-6", "table"): {
        "canonical": (0, "fb63636a091f4ebafbf1c28a16852435b4a23b072bd509760dead13c26998ad2"),
        "complete": (0, "d8535edb6841be55267cdf26cb94ff693cac62c093b817bec9d1cc2c1477f5fe"),
        "check-complete": (0, "70601edaa751e402eb3c0e8066abc5ad3539f4a1508d89daa842762b093a3203"),
    },
    ("h4-4", "json"): {
        "canonical": (0, "786f5e25d8f58edf9bc99f248c71902c2da0683f83b81667591b3fb597aeacda"),
        "complete": (0, "dde7b26dc170f5100521034cdc2081b03cc941b1f69636845f7aaedc3d8196bc"),
        "check-complete": (0, "ad1ed6243ea081e7d97d9e7bf7443870a40e1ea693c6c7fb4a35354451f1de93"),
    },
    ("h4-4", "table"): {
        "canonical": (0, "299e25fc7826b7f777e2338d7e8a48059d50983c4dd935c9180eadcf0b0e6657"),
        "complete": (0, "7d4faa37901086cc06684b196b1aff7564dfa2726e2422c005c68d34609659ec"),
        "check-complete": (0, "70601edaa751e402eb3c0e8066abc5ad3539f4a1508d89daa842762b093a3203"),
    },
    ("h3-4+2^60", "json"): {
        "canonical": (0, "d6443769d0cf4ef0f86a1791a5114900f5cd2f2ab4b504dbc93ef30bac2fadbb"),
        "complete": (0, "3c08be88708fc37da6cc920add680e0ec3661ca22c902ce4eb08c6361b8103af"),
        "check-complete": (0, "ad1ed6243ea081e7d97d9e7bf7443870a40e1ea693c6c7fb4a35354451f1de93"),
    },
    ("h3-4+2^60", "table"): {
        "canonical": (0, "215a544d04b71e1016813199e9bc624075a788f88807ebf28d0bf49d1c6c362a"),
        "complete": (0, "b504da3b3efbba780eb785c48948f4fe6942156eefee0f70dc1653e7cd75a72b"),
        "check-complete": (0, "70601edaa751e402eb3c0e8066abc5ad3539f4a1508d89daa842762b093a3203"),
    },
}

# check-complete on complete's output with one point added or dropped
GOLDEN_CHECK_COMPLETE = {
    ("div52", "json"): {
        "check-complete +1": (0, "ad1ed6243ea081e7d97d9e7bf7443870a40e1ea693c6c7fb4a35354451f1de93"),
        "check-complete -1": (3, "9718ff1859cbd0804b0e4522d054bdc3e177f46e859736462f4e0ec08876c353"),
    },
    ("div52", "table"): {
        "check-complete +1": (0, "70601edaa751e402eb3c0e8066abc5ad3539f4a1508d89daa842762b093a3203"),
        "check-complete -1": (3, "4430b2eb94269d45be0e071197f6bf9e52f27a0f1babbf4731b3e4992560f920"),
    },
    ("B", "json"): {
        "check-complete +1": (0, "ad1ed6243ea081e7d97d9e7bf7443870a40e1ea693c6c7fb4a35354451f1de93"),
        "check-complete -1": (3, "9718ff1859cbd0804b0e4522d054bdc3e177f46e859736462f4e0ec08876c353"),
    },
    ("B", "table"): {
        "check-complete +1": (0, "70601edaa751e402eb3c0e8066abc5ad3539f4a1508d89daa842762b093a3203"),
        "check-complete -1": (3, "4430b2eb94269d45be0e071197f6bf9e52f27a0f1babbf4731b3e4992560f920"),
    },
    ("B7", "json"): {
        "check-complete +1": (0, "ad1ed6243ea081e7d97d9e7bf7443870a40e1ea693c6c7fb4a35354451f1de93"),
        "check-complete -1": (3, "9718ff1859cbd0804b0e4522d054bdc3e177f46e859736462f4e0ec08876c353"),
    },
    ("B7", "table"): {
        "check-complete +1": (0, "70601edaa751e402eb3c0e8066abc5ad3539f4a1508d89daa842762b093a3203"),
        "check-complete -1": (3, "4430b2eb94269d45be0e071197f6bf9e52f27a0f1babbf4731b3e4992560f920"),
    },
    ("h3-6", "json"): {
        "check-complete +1": (0, "ad1ed6243ea081e7d97d9e7bf7443870a40e1ea693c6c7fb4a35354451f1de93"),
        "check-complete -1": (3, "9718ff1859cbd0804b0e4522d054bdc3e177f46e859736462f4e0ec08876c353"),
    },
    ("h3-6", "table"): {
        "check-complete +1": (0, "70601edaa751e402eb3c0e8066abc5ad3539f4a1508d89daa842762b093a3203"),
        "check-complete -1": (3, "4430b2eb94269d45be0e071197f6bf9e52f27a0f1babbf4731b3e4992560f920"),
    },
}

GOLDEN_DEMOS = {
    "01_antitone_maps_and_representations.py": "467e7950cb2cf696603d57ad6f63fd60473a80fc7b811a2bb1e742fc236388ae",
    "02_commutator_sequences.py": "961b120a5cd7c808a71bd60b370dd97f52a690b46d36cb67fa1c14ec0f9c4e7f",
    "03_learning_from_queries.py": "9f883daecea6425ec2a82c681c1fd271794ff4001563a4d66c1dc33ef39a6d3b",
    "04_upward_closed_sets.py": "89992e4622b102cd7dbd43c434b7b050bd0878be37614772280bd1c6c65b85df",
}


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("name", ["div52", "B", "B7", "B10", "B1000"])
def test_cli_outputs_are_pinned(capsys, tmp_path, name, fmt):
    assert _cli_digests(capsys, tmp_path, name, fmt) == GOLDEN_CLI[name, fmt]


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("name", ["h2-9", "h3-6", "h4-4", "h3-4+2^60"])
def test_hyperplane_outputs_are_pinned(capsys, tmp_path, name, fmt):
    assert _hyperplane_digests(capsys, tmp_path, name, fmt) == GOLDEN_HYPERPLANE[name, fmt]


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("name", ["div52", "B", "B7", "h3-6"])
def test_check_complete_outputs_are_pinned(capsys, tmp_path, name, fmt):
    assert _check_complete_digests(capsys, tmp_path, name, fmt) == GOLDEN_CHECK_COMPLETE[name, fmt]


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("name", ["bool4_diamond", "fails_hc1", "fails_hc2", "fails_hc8"])
def test_witness_outputs_are_pinned(capsys, name, fmt):
    assert _failing_digests(capsys, name, fmt) == GOLDEN_FAILING[name, fmt]


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_outputs_are_pinned(capsys, demo):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert _digest(capsys.readouterr().out) == GOLDEN_DEMOS[demo]
