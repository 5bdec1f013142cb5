"""Golden CLI outputs: the sha256 of stdout for fixed commands.

The hashes pin the exact bytes the commands print, so any change to the
census, folding, distance search, concavity checks or serialization
that alters an answer or its formatting shows up here.  Error exits
pin their exit code and the JSON payload on stderr, and one hash
covers the help text of the group and of every command.
"""

import hashlib

import pytest
from click.testing import CliRunner

from alcove.cli import main

GOLDEN = [
    (
        "ball --type E8 --radius 3",
        "2c65a7ce83316f2615b2f9f14eee9926801e828457968ffbb6f076355362e22b",
    ),
    (
        "ball --type F4 --radius 3 --level 2 --q-eval 3",
        "27fb547cc93fb6be8770a966d2ae7732919265678b8f4c063d239d7ef6faed9a",
    ),
    (
        "ball --type G2 --radius 6 --level 4 --q-eval 5 --format csv",
        "01f76dc94fcd24420efbd1051216ee909304d6d31f78f99740609320dd131b74",
    ),
    (
        "ball --type C4 --radius 4 --level 3",
        "b9a98a26bbbba5e7bc2baff9273862b2a24559e92a29f82b34d77e9098749716",
    ),
    (
        "sandwich --type C3 --R 0 --r 1 --q-eval 2",
        "40aba1b1ed40b17927cb4bdea3a1c20af89cbe9b697e77d4673a6974339ec144",
    ),
    (
        "sandwich --type A3 --R 1 --r 3 --format markdown",
        "5a1068173513e7cbc4941db93b24c1d72b5d502e9dd45ef0073b3266373ceb88",
    ),
    (
        "sandwich --type A2 --R 0 --r 5 --q-eval 3",
        "0c2433199e7ed824b8299ccdb363daf6499f0811ae488112bcfafad4646c9241",
    ),
    (
        "ball --type E7 --radius 3 --level 2",
        "eec269f4fe11451e771950ae27cb0067072e5da87db8a31b0688bd8a9a838392",
    ),
    (
        "distance --type B3 --x 0,0,1/2 --y -3/2,0,1/2",
        "ad80ac12836a2c4a2e818516ee248bfbbef8b84071f5754cd34734f89957e687",
    ),
    (
        "distance --type G2 --x 0,0 --y 1,0",
        "e8bb82fd4fc86eda65b508cfe2999750ebf9bccf10f31d6b0d8eae6f08f4d9ba",
    ),
    (
        # simplicial distance 2: the search expands non-corner residue classes
        "distance --type E6 --x 0,0,0,0,0,0 --y 0,1,0,0,0,0",
        "0bea5398ddba61a1dbe17f2932cd3be73de4db48985232f9c429b9fc9e20da46",
    ),
    (
        "verify --suite concavity",
        "09eb321573d5bb9b652eeaa72adddb4a492f22edec4bf8044cfbf592f8ec56d0",
    ),
    (
        "verify --suite polytope",
        "7be96fa5a4ab7c1b2328b3b13b99eda08e68a0a20e7d9739d7a990f5f17377eb",
    ),
    (
        "ball --type E6 --radius 4 --level 3",
        "fc04aafc4a77a6437fdcb6b140134f8f5e27185148e2c359fd1496168233e683",
    ),
    # info pins the positive roots in order, the marks, 2rho, norms and degrees
    ("info --type E6", "47661e4a162520d33765ae624628c2f0530da10e60b2501f75f3cdcb312f39a3"),
    ("info --type E7", "09da84d947ca9c543c8b9e7cbb9c7e8796e032a4f76e649c5f9252bb04916ec6"),
    ("info --type E8", "e253105358bca8fcc7b2025913cce61dfd437ef1cd82f43b6814eba0c254485b"),
    ("info --type F4", "c4948242fe71a4ae758c6e5d86397ee7a68bde8752bb4d0768712c3b455ba1f5"),
    ("info --type G2", "1dd24f0964d6983039dac60552e5bda79c287ce8d042b84fc53eb622e246d56a"),
    ("info --type B7", "3f38964f03641762cd14aee3ab65760b4c7194f869268c03c7c3a000a0c7c2a9"),
    ("info --type C7", "638dfdacac6f4bc529f2816bcea52085b76358c9eadac961c7a8fbd0c800ba82"),
    ("info --type D7", "1fb0e40954b19f501cefeec1c692015515766fe8646da30f736422a5471edc9f"),
    # the tabular and flat csv/markdown writers, and every other verify suite
    ("table", "93caed6014f8545dc8742a3ba79e02180bf063a45f6de66e8109f44155928df9"),
    ("table --format csv", "2490a762f94f5ab31a2f801b29b6980c7d630ee28dcaa5a59ffe289ce20b1bc3"),
    ("table --format markdown", "50719dbfe177066aa2f29b103a2772eecdca66abfd5c720ae90e3b49f0f3fe82"),
    ("info --type G2 --format csv", "00f44d455c74550211a79de78979182f714c53e6c2eb4298c03eafa445454aff"),
    (
        "info --type F4 --format markdown",
        "d29d99867dff208ad3cff7161156893c92b6a1dd398f8ce816e2e3ba338edd3a",
    ),
    (
        "distance --type G2 --x 0,0 --y 1,0 --format csv",
        "d2ad973a7c50cd693bcb5452b94f5d39259807f2e6d8bbed027b27649bd12cb9",
    ),
    (
        # a vertex to itself: wall d 0 and the witness root null
        "distance --type A2 --x 0,0 --y 0,0",
        "6262e51d0e1b86a0995129370e7d89366cce5e293dc6de35a5c645566c7e5cdf",
    ),
    (
        # the lower bound is empty: its polynomial is the empty csv cell
        "sandwich --type A2 --R 0 --r 1 --format csv",
        "0052667f658a758711a8f4188f400a24d3dfc6841f14bda2c136dfeebbb59a06",
    ),
    ("verify --suite metric", "4f276c788dc971e7254275620276047ca713c1c4ac6fe1058f8cdb5529a52170"),
    ("verify --suite table", "d39b6d371addd2faae4ad767b5532f972f8f32af21965e06ae627d6628ed987e"),
    ("verify --suite growth", "162f71028e3117b23da16c5499d164da7fb138467893bffe84fed9a12680d3fd"),
    ("verify --suite sandwich", "3ea634d4c4ae510cba5c718cb8c02d39680286d52ee1cf2630aa7824513c1420"),
    ("verify --suite g2-gap", "aa5bfb274be5b331d1a270f8796e14312e4d0bf363b7fdf195ba774819c1911c"),
]

# (command, exit code, sha256 of the JSON error payload on stderr)
GOLDEN_ERRORS = [
    (
        "ball --type A2 --radius 2 --level 0",
        2,
        "ec6b95f2c3595768604155e1b4b5d3f9a1b03dfc6f01234499ff79f1b19a33e1",
    ),
    (
        "ball --type C3 --radius 3 --budget 3",
        3,
        "721ca17a058e628ab38776ff2f66c0a4af252ccdde4df425d5c9adf96159def1",
    ),
    (
        "distance --type B2 --x 0,0 --y 1/3,0",
        2,
        "bc6d95e8a35f1a44805817a5d54491c7017c8957ad21aab7e9acd531950bf750",
    ),
    ("info --type Q2", 2, "a98dd29280a9b446c22d19c38a6505517ad5a3d6bdc0223f3fdeddd0e754dc52"),
]

# the group's --help and each command's, concatenated at 80 columns
HELP_COMMANDS = ["", "info", "table", "ball", "distance", "sandwich", "verify"]
HELP_DIGEST = "004667ed4085b2e5d72e5f4258d81f38d70c1b9a8b32876c65737d77c601fa6b"


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_stdout(command, digest):
    result = CliRunner().invoke(main, command.split(), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "command,code,digest", GOLDEN_ERRORS, ids=[c for c, _, _ in GOLDEN_ERRORS]
)
def test_golden_errors(command, code, digest):
    result = CliRunner().invoke(main, command.split(), catch_exceptions=False)
    assert result.exit_code == code
    assert result.stdout == ""
    assert hashlib.sha256(result.stderr.encode()).hexdigest() == digest


def test_golden_help():
    digest = hashlib.sha256()
    for command in HELP_COMMANDS:
        result = CliRunner().invoke(
            main, command.split() + ["--help"], catch_exceptions=False, terminal_width=80
        )
        assert result.exit_code == 0, result.output
        digest.update(result.stdout.encode())
    assert digest.hexdigest() == HELP_DIGEST
