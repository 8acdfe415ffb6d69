"""Default `--json` report bytes and exit codes, pinned per (subcommand, fixture).

Each entry is the exit code and the SHA-256 of stdout for one subcommand run
through `cli.run` on one built-in fixture, the fixture written to the working
directory as `<name>.graph` (the report quotes the path, so it stays
relative).  A change that keeps report bytes identical keeps this test
green; a change that means to alter a report updates the digests it alters
and says why.
"""

import contextlib
import hashlib
import io

import pytest

from stablespan import formats
from stablespan.cli import run
from stablespan.corpus import FIXTURES

COMMANDS = {
    "recognize": ["--json"],
    "factor": ["--verify", "--json"],
    "rankdec": ["--oracle", "--json"],
    "oracle": ["--json"],
    "poly": ["--check", "--json"],
    "falsify": ["--seed", "0", "--trials", "200", "--json"],
}

DIGESTS = {
    ("factor", "bowtie"): (0, "b44ea566f0af41ba679029b2de432083b4b292ace38c2aa35dad3351cef0ae37"),
    ("factor", "c4_accept"): (0, "399ebf2cccfd76acbcc13574c7904a52160129cffeab0391359963482f76d851"),
    ("factor", "c4_reject"): (1, "c1f98ff8d7a0b79ad38219ac00992ef3d6c880aa7ad38f466173bab86709a646"),
    ("factor", "c4_unit"): (0, "6208b1d7dbfc43a6b9cb6d175d98ef5032afecfb3dae260bbd116fddf47a22c1"),
    ("factor", "c5"): (1, "10a66245c7282763c58fedf4d6e611c9fbbb4b3f3b6c56e4b102d662850d0175"),
    ("factor", "c6"): (1, "96c274a9d2837f914e55462d7167fa81fda489ce29b5367987580a3fbf30a19a"),
    ("factor", "domino"): (1, "0e3bc58ad748babb88367b02aa36c6c94d764e74e1a4e5d96f85ead6ea4ee045"),
    ("factor", "gem"): (1, "b961ae9ead2163e88651f5d482c19a3929bae82733d15d88a71493aae5a08f74"),
    ("factor", "house"): (1, "8605709d69c60dfa69546248e695d230214c8dae269e62952c99fc07e9bffc2f"),
    ("factor", "k4_distinct"): (1, "5c83dd4eef1f93277cb21983a429694689f34c1d2510b3726564c29a586c791a"),
    ("factor", "k4_one_heavy"): (0, "10cd98ecec7745aab9c2f91f89436cddef174f86865984c0566999d9ae698cce"),
    ("factor", "k4_unit"): (0, "fb556826a79e99182e573035d1180d4622d41b638c25ea72b6f49cd432412019"),
    ("factor", "mixed_sign_bowtie"): (0, "2db2320f04799e0c0b5ec19830286f9b61a6e43b96004eb04b1ed38c7c3fdc35"),
    ("factor", "mixed_sign_triangle"): (1, "dfa2cee2ac115ea7648be3b5b2f6811328facd865f8d7ca118cb3aeb8e6685a0"),
    ("factor", "path3"): (0, "7c1963295cef64ea66facab4b7c27457d5923b8b72dd7c45d171275b3aa2478f"),
    ("factor", "star_k13"): (0, "fe889f6fce47c99fe58c91fbad9b42e253ef11c6098bcfec40a47069e92fe394"),
    ("falsify", "bowtie"): (0, "aad3ad66f8492427af51540b1cfb1604c248a9eaaa70bfcf05f3dbc6a98eeca2"),
    ("falsify", "c4_accept"): (0, "e6cfed26b94f15b92469f4a8237ac5681cf29e08c367f4553dbfbcf7a8b5f7ae"),
    ("falsify", "c4_reject"): (1, "26a883e0a2d5ec98bc0c25af4b3a03e2e153404d914ba8432457d4eff707d3da"),
    ("falsify", "c4_unit"): (0, "3ee007bbe59decb1226f00eb3ea41c4818a22003cb61796f49ebec46c726bcf3"),
    ("falsify", "c5"): (1, "7fb934e3cbdcd995d8fb5eb664a4b3eef347230a85c2ecfdc72eb6d864be73ee"),
    ("falsify", "c6"): (1, "0fb66db7a4c92c15f3a7d0d61792922e511b74e2ad8681e63eae7be35c31d461"),
    ("falsify", "domino"): (1, "4a940388e41978aff09b6d19690bd58b002fc792817456ce2d42d02bfb3d49cc"),
    ("falsify", "gem"): (1, "8fec6d0fe479e980765963767e13fee5fca7788fb48b235e22852ca2a38cbba2"),
    ("falsify", "house"): (1, "cd09cb929faf1f2874282092892b8c3191923745f90349720840998a746ea59c"),
    ("falsify", "k4_distinct"): (1, "64ea3a7e33169d63744d7490d51a45f5d0ec193fe9cbfd3ad8aa4702fee4a15c"),
    ("falsify", "k4_one_heavy"): (0, "0e8eb9d1805ed8cf8b1eda8e6b065822ea966e51fc350f2e78e44c3034c706eb"),
    ("falsify", "k4_unit"): (0, "822d9023bd55b6d0a05b14ed02ef2db66c6d128950a4b05ef0a7585a3d20b2ad"),
    ("falsify", "mixed_sign_bowtie"): (0, "e40cc6b3bfca1ac793ec4bc99dfdb6b0cbda40ac1197287e795271d1cdf74b3c"),
    ("falsify", "mixed_sign_triangle"): (1, "f51d6bc5c2d4678b78bb5374ed95eb7e08ee806e1a007de33d935815b36bc06a"),
    ("falsify", "path3"): (0, "632ee390d7d748fe6646cc0362e68f5dc876f81fb5f487c4c2e13695375b3db6"),
    ("falsify", "star_k13"): (0, "4e1205cfb2a9b3a5f336817904dce3454a7700f48fc38b7eb159816fdce50c90"),
    ("oracle", "bowtie"): (0, "75f12daff017d3d92587fec9eca04dbcf280f2bea8ee1b7be5dffea8e4344f14"),
    ("oracle", "c4_accept"): (0, "ceec7665da1a4574623b0272c1018eaba64af74b63b5a98391f63529db7b10b2"),
    ("oracle", "c4_reject"): (0, "4035de298446d60a5f69d6f318fa96b99b9ad4e03716fcbdf752f2f432df8a1b"),
    ("oracle", "c4_unit"): (0, "7603f2371fd60f05d3d73807993bdfc097cfab564f963927800bd4933c4f452b"),
    ("oracle", "c5"): (1, "44516ca5df1bf823144f1519d316606001f183b400148da1a05c05085a42ea6f"),
    ("oracle", "c6"): (1, "c6a640792d27bb17d3772f6469838952ed6164142d1c45d5d2429037596cc0a7"),
    ("oracle", "domino"): (1, "b6fcaf89d7b21a92f9af5ff22cd6dad7efd2d9016a130af2ff1228eb09e9677f"),
    ("oracle", "gem"): (1, "e3f1ac39955ea62a6e4340810fbde7b018d3f5fc112ec8f6a6279bb27e6d8ceb"),
    ("oracle", "house"): (1, "0ed22c8ac00b3fc8fdf5db6f879876fb1c015f664acc78fef934e2b42201ed4d"),
    ("oracle", "k4_distinct"): (0, "7a6f9513ea4bb0c76946d1e94b77ea86c3c2107bb81581734244c113ea67c098"),
    ("oracle", "k4_one_heavy"): (0, "c3fbc923d76b88644d852235a61f08de8e9c246a6d35b53355098510446f8620"),
    ("oracle", "k4_unit"): (0, "7690be84b40f8c6300b7ccd7e313f2f618640c53824a26340125e55ed8c4ecc6"),
    ("oracle", "mixed_sign_bowtie"): (0, "d8952d4125199d8cb2cca3118e7fd3d314632128167808e2549005a91f1dc0d5"),
    ("oracle", "mixed_sign_triangle"): (0, "4a47167f80ead8ba4cc0e60caeb5246aefb0b322a8aabc460d576124c7f78b2b"),
    ("oracle", "path3"): (0, "daf66c61831cae6a8788fe1603125785d036c53c8fd548dd82afef34bbfd5ba6"),
    ("oracle", "star_k13"): (0, "71f1bd735e0307ba7d84636e57c63ba8a5755b886570c8db7389233be92466ee"),
    ("poly", "bowtie"): (0, "dd6839d359fcd70b7624efa228c229a03cf3c2ebda99d1c8a7fb6628c6c49d48"),
    ("poly", "c4_accept"): (0, "a4ceb3606999ee102597cbf1f2b5f72ab4f75047a725f0539347b6f9936dd4c4"),
    ("poly", "c4_reject"): (0, "a692577c768d3d325699c7bde6199992130e57237652657a16b954289787be65"),
    ("poly", "c4_unit"): (0, "91e40caaad2a70a93aeece9262af1e883fd56610f261ebf583e0850c07e98730"),
    ("poly", "c5"): (0, "63750bd4475229cf305e3747b38d2a1c411645973d23dce1c80d1cf60df92e95"),
    ("poly", "c6"): (0, "6618f16e436696f373d13c7d8617b6174a94283fff100f4bee41a0c95bf38741"),
    ("poly", "domino"): (0, "ac00a60a0d4c93bf5c800aff55284477671e8d8373a4219d57781dba35ace11a"),
    ("poly", "gem"): (0, "9750f5890196d3b06743aae6e8b01b55391a0f556b6275c6dc33e8e5f30476f1"),
    ("poly", "house"): (0, "a522579a26c1d63437eb97f0ac0cfc7c79d76ebcf4afdc17ed6eef66d49a3e66"),
    ("poly", "k4_distinct"): (0, "e725b28adcc71abea074b6bd6b9aa6ae0d5dd2b98f8013d86ff8cd907df2a846"),
    ("poly", "k4_one_heavy"): (0, "c4660b97e338499fa20a4cc448c48ef250aaf36f78e57d906ca2b9a2135dcc42"),
    ("poly", "k4_unit"): (0, "69f850d8649aa707b1d11413cc102b97c166a47f831f5026aaca13a4be2d9d45"),
    ("poly", "mixed_sign_bowtie"): (0, "dab202d04b04e353524b3626ab5153887c39265e119f84af1a1249e84596c7b3"),
    ("poly", "mixed_sign_triangle"): (0, "be555049fb5abeca6129f163a188676441608686adbc23dbd0755f20673004b1"),
    ("poly", "path3"): (0, "7a42ec750d896ee8a4a52d78d2b2193313151f5e9c011ebae3bedeb16196ff66"),
    ("poly", "star_k13"): (0, "50e29c4b5c559fd24130964920d10f681e3b0d385094b58608932a3291d28a81"),
    ("rankdec", "bowtie"): (0, "c04d271d51d7f9176d61362a39e24ced0dc8df2d7ebd035b28e1f0c421eae3ed"),
    ("rankdec", "c4_accept"): (0, "7ad8da3fb6f80b2017d67745759df410958c6505b27c2528e8ad30aa70ae3015"),
    ("rankdec", "c4_reject"): (1, "5bdf90319002585f9adb015bb7015dd610534cb60b4cf0e3a96e07e5127755d1"),
    ("rankdec", "c4_unit"): (0, "7beed6a62684e7951d0c5e010317055c62bacc9cd6220be53a2cf25a34739797"),
    ("rankdec", "c5"): (1, "4a5135ca8160bc383715030861f7ac5bc81e816b73ea0a8a37e1c779ff2624f3"),
    ("rankdec", "c6"): (1, "91bb59276c07cc3c0e075d5cefb5dfbe1ff040c37dd95367543172e8c952bac6"),
    ("rankdec", "domino"): (1, "593db52de8c289e114d02f635227602e853cdfffa3fd4a9812ee8e6880895b00"),
    ("rankdec", "gem"): (1, "27d4a1e2e6d7603398710fba3ec467c89ccfb7284f90fbb55a2f1363c7ed317f"),
    ("rankdec", "house"): (1, "1cf87fb1da961eb081ba6a8cab21fc8459cb1574d2a977bea26c6fe8e79e569b"),
    ("rankdec", "k4_distinct"): (1, "1354af6f6410ff247386f62e3116d0a0c9b3586f948df5aed2f04f04863a6b6d"),
    ("rankdec", "k4_one_heavy"): (0, "ad211cdbc2d836b06a6f94d197f687ed0a725568816fff6a719b1b09a0ee217d"),
    ("rankdec", "k4_unit"): (0, "6b7bec8b46de8aa95cb42923625fa1219c02912dd6c4fdd9f561373c14154ab9"),
    ("rankdec", "mixed_sign_bowtie"): (0, "eb14844cf3920b3e3fd000d162c9e865a424148d790a0256b9bd2ce100e544da"),
    ("rankdec", "mixed_sign_triangle"): (1, "2fb58d37cc36a12cf438ad5d6add76049469d07845849e6482131905224dd3af"),
    ("rankdec", "path3"): (0, "72c0d3067ed0ca73e00041ec28f3b4ab018cf62e7afeb95eafdd53d172d90937"),
    ("rankdec", "star_k13"): (0, "07f297d905c8db5abe1b2a1e5b57711dc596fc8546cf51ca711fec2fd3a0f7f8"),
    ("recognize", "bowtie"): (0, "726cc78838685afd740615655ef035736f6e96bf449b4283e98a44c2129f99f5"),
    ("recognize", "c4_accept"): (0, "5885a9b001596ea8e276a39b0ee33dbbb4f7850ffe13eada0bd14a689baf75ef"),
    ("recognize", "c4_reject"): (1, "7eb32b8f0cb78b8e4a82357a96d90e5e5974542bd046fab02c9610f12cd72d9f"),
    ("recognize", "c4_unit"): (0, "81ff3405c7b8110ed0485c7bbb929333f793a464c165261f108e4d807709b2bf"),
    ("recognize", "c5"): (1, "ec051081f0c31feba82a1344fd58a322e10a8a214211265a488ce57b33505611"),
    ("recognize", "c6"): (1, "dadee1080eef0a2e37f688f5c865351f414a2b263456fbcdcc4213c42a67a69a"),
    ("recognize", "domino"): (1, "dacdf5c256ca250bb7df86f48c7395fc45ec7e508f37fb66f7d449ea1eb5ac03"),
    ("recognize", "gem"): (1, "59bab7d70e0e5a574b9fda2068126cbe20038302d1c1764e874ad3f691c0e451"),
    ("recognize", "house"): (1, "c90304d746b1dd7d7f0aaf93b2d947ba034b9bc549dac972f6150b012a035fce"),
    ("recognize", "k4_distinct"): (1, "6fd768d5ae6ec0563f0b7c78973d86d631feed9b5609d2e70512808c356a26bf"),
    ("recognize", "k4_one_heavy"): (0, "37590540e55a72664833d353f63c244087a4de16515c5881b859d7510ef3ec81"),
    ("recognize", "k4_unit"): (0, "71b07ca629715ba05df08de1fef6256d56f323ca4ab69d9b42307764df86a837"),
    ("recognize", "mixed_sign_bowtie"): (0, "7864c3be35de035eb895ae8a84fbf9ffe11edce75b37c7ddc6c866a69f885584"),
    ("recognize", "mixed_sign_triangle"): (1, "b12552f808761aea5e44347c4285eadb0fad3c89c584d0d255e869d3028bd002"),
    ("recognize", "path3"): (0, "e7cec9d08ff9aabe8e408ce369dbd996f1450fa43760de4ad3a58b240cbdf458"),
    ("recognize", "star_k13"): (0, "cfa1707794337db1b3b5c2496019eea55f392986fb9ffb498a860c1ea1243544"),
}


def test_every_subcommand_and_fixture_is_pinned():
    assert set(DIGESTS) == {(cmd, name) for cmd in COMMANDS for name in FIXTURES}


@pytest.fixture(scope="module")
def fixture_cwd(tmp_path_factory):
    out = tmp_path_factory.mktemp("digest_fixtures")
    for name, g in FIXTURES.items():
        (out / f"{name}.graph").write_text(formats.format_graph_text(g), encoding="utf-8")
    return out


@pytest.mark.parametrize("cmd", sorted(COMMANDS))
def test_report_bytes_unchanged(cmd, fixture_cwd, monkeypatch):
    monkeypatch.chdir(fixture_cwd)
    got = {}
    for name in sorted(FIXTURES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run([cmd, f"{name}.graph", *COMMANDS[cmd]])
        got[(cmd, name)] = (code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest())
    assert got == {key: value for key, value in DIGESTS.items() if key[0] == cmd}
