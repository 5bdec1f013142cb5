"""Golden CLI outputs: the sha256 of stdout for fixed commands.

The hashes pin the exact bytes the commands print, so any change to the
census, folding, distance search or serialization that alters an answer
or its formatting shows up here.
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
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_stdout(command, digest):
    result = CliRunner().invoke(main, command.split(), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
