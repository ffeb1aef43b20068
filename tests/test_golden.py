"""Seeded small-n outputs pinned by their sha256 digests.

A change meant to keep seeded output byte-identical must leave every digest
here as it is; a change that alters an output on purpose updates its digest
and says why. `outputs` runs each command in process at a fixed seed.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qotlab import cli

SEED = "11"
SEEDED = ["--seed", SEED]

CAMPAIGNS = {
    "rot": ["rot", "--n", "16", "--trials", "4", *SEEDED],
    "ot12": ["ot12", "--n", "64", "--trials", "4", *SEEDED],
    "ot12-json": ["ot12", "--n", "64", "--trials", "4", "--format", "json", *SEEDED],
    "usd": ["attack", "--attack", "usd", "--n", "32", "--trials", "4", *SEEDED],
    "nogo": ["attack", "--attack", "nogo", "--n", "4"],
    "probe-p3": ["attack", "--attack", "probe-p3", "--n", "8", "--trials", "50", *SEEDED],
    "probe-p4": ["attack", "--attack", "probe-p4", "--n", "4", "--trials", "50", *SEEDED],
    "omission": ["attack", "--attack", "omission", "--n", "8", "--m", "3", "--trials", "3", *SEEDED],
    # off pi/4, so the angle has to reach the measurements and the transfer
    "ot12-theta": ["ot12", "--n", "64", "--trials", "4", "--theta", "0.7", *SEEDED],
    "rot-theta": ["rot", "--n", "16", "--trials", "4", "--theta", "0.5", *SEEDED],
}
# commit flags of each pinned transcript directory
COMMITS = {
    "p2bc": ["--protocol", "p2bc"],
    "p3": ["--protocol", "p3"],
    "p4": ["--protocol", "p4"],
    "p5": ["--protocol", "p5"],
    "p2bc-theta": ["--protocol", "p2bc", "--theta", "0.7"],
}
FILES = ("sender.json", "receiver.json", "open.json")

DIGESTS = {
    "rot": "cd9b3bc0f190a190e71939f2ea3136bf6ce33bb5ac60cffb52ece595bba7f494",
    "ot12": "eebcb5adc5bf0df52b94dcc33d22f5e121977c888961066c8dd807a914e05771",
    "ot12-json": "0e441791e6bfbc7ca9372e367d5c7d3c5be40a958008288d6fd0f601a27b2d2a",
    # recorded after attack usd gained its abort_rate_exact row; the output is
    # the earlier one with only that row added
    "usd": "9e1b11e39fe11393cd8bee193de86dbf8ed210ae509cd27be29c63893bf02bd4",
    "nogo": "af4e3860881449a8cf8286b355052433e54eb6be82bc21f4f711a5ea4ead3f1e",
    "probe-p3": "2ba9a4f0a8701e4a030b0621c268d63f35d3ed81fe1031e63d99c6e9a9c99e92",
    # recorded after attack probe-p4 gained its per_qubit_detection_exact and
    # run_success_exact rows; the output is the earlier one with only those added
    "probe-p4": "0e391e22429fa421267a4f04eac868155487b53d8ccbedf8d145f78247af3503",
    "omission": "4b84cc90941428c426583008a53bc26f52abe03fd8a75a3842d0d1e23ffa1987",
    "p2bc/sender.json": "511bb309a730befee44d98f5d03f79aca2ccc0fdfb31d3675dc1bcd24282757a",
    "p2bc/receiver.json": "355eeba8ecb6dded2cbe06ad02f783c06d8a5adf818dd0e11c2d9e0fddb4a4aa",
    "p2bc/open.json": "f871e23a406a9c8dc0e46ec695ca0ee7625537da00edc109bc6a32d201d4af0d",
    "p3/sender.json": "8abc9334d4232c0dcb49aea8292cef8702618a478a90e1c226d1652918f9f81b",
    "p3/receiver.json": "3bc8632880ef1476e9204cba7cc073c882ccec6234da5a1343b9826432df0fef",
    "p3/open.json": "fde22e2cad4b3ec321fed2f32014753700df31d570ca768b012d7ac11c090eb0",
    "p4/sender.json": "94e447becc4201d90d16b927f7f99b7f2a2b2b018d4a411088bf87b7c9c1471f",
    "p4/receiver.json": "74f7b62aa3986c067b63ed6199794d0fe38dcb40439235d6e0f0f28578d6a923",
    "p4/open.json": "727d7a2de4c6bcb1519bd41e92357124ed9fb53d4f5828a37a43ad49fc793636",
    "p5/sender.json": "fcd2a07753541d59c0e9c16a12cce0e48e8ebc4f337a64a28bd9e5bca791c964",
    # recorded after the P5 receiver stopped storing its blinding angles;
    # the file is the earlier one with only its "alphas" key removed
    "p5/receiver.json": "3297fead4b6dfa97e3f7987d5d4dc8727ee349ae635215fbfae27e982f1bed66",
    "p5/open.json": "574917924ee44901d3ed10fe7fe8e765e7d171818b9e9dc012afb99c93376a81",
    "ot12-theta": "669265e6ce62e29150ee76cdf8c4b2b72f98e9a52ba258b8dbaa739f8ac5f836",
    "rot-theta": "e45f0085363a90e9636f95b94f70422a38977769a970f8a10360aab11d59872e",
    "p2bc-theta/sender.json": "21af68f778d8a924a856aab39d9915923bfdef93305ef4337b909705ef9c1271",
    "p2bc-theta/receiver.json": "225998d8197951a2ddc80ebb97586268b26850d596b9da345494214c52600d60",
    "p2bc-theta/open.json": "9c37aaf6db6e04793c47761bbbb2584bb330e7853f59cb022fda77720a1622ec",
}

# A P5 receiver.json written before the receiver stopped storing its blinding
# angles: commit --protocol p5 --n 4 --m 2 --seed 11. It still holds "alphas".
OLD_P5_RECEIVER = Path(__file__).parent / "data" / "p5_receiver_with_alphas.json"


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv


def outputs(workdir: Path) -> dict[str, bytes]:
    """The bytes of every pinned output, by name."""
    out = {}
    for name, argv in CAMPAIGNS.items():
        path = workdir / f"{name}.out"
        _run([*argv, "--out", str(path)])
        out[name] = path.read_bytes()
    for name, flags in COMMITS.items():
        transcripts = workdir / name
        _run(["commit", *flags, *SEEDED, "--out", str(transcripts)])
        _run(["open", "--out", str(transcripts)])
        for f in FILES:
            out[f"{name}/{f}"] = (transcripts / f).read_bytes()
    return out


def test_seeded_outputs_match_their_digests(tmp_path):
    got = {name: hashlib.sha256(data).hexdigest() for name, data in outputs(tmp_path).items()}
    assert got == DIGESTS


def _verify(workdir: Path) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["verify", "--out", str(workdir)])
    return code, stdout.getvalue()


@pytest.fixture
def p5_small(tmp_path):
    """The P5 commit and opening that OLD_P5_RECEIVER came from."""
    workdir = tmp_path / "new"
    _run(["commit", "--protocol", "p5", "--n", "4", "--m", "2", *SEEDED, "--out", str(workdir)])
    _run(["open", "--out", str(workdir)])
    return workdir


def test_the_p5_receiver_file_only_loses_its_blinding_angles(p5_small):
    old = json.loads(OLD_P5_RECEIVER.read_text())
    assert "alphas" in old
    del old["alphas"]
    expected = json.dumps(old, indent=2, sort_keys=True) + "\n"
    assert (p5_small / "receiver.json").read_text() == expected


@pytest.mark.parametrize("tamper", [False, True])
def test_an_old_p5_receiver_file_verifies_like_the_new_one(p5_small, tmp_path, tamper):
    if tamper:
        opening = json.loads((p5_small / "open.json").read_text())
        # two flips keep the string's parity, so only the conclusive outcome
        # at qubit (2,4) can reject it
        opening["strings"][1][0] ^= 1
        opening["strings"][1][3] ^= 1
        (p5_small / "open.json").write_text(json.dumps(opening))
    old = tmp_path / "old"
    old.mkdir()
    (old / "receiver.json").write_text(OLD_P5_RECEIVER.read_text())
    (old / "open.json").write_text((p5_small / "open.json").read_text())
    new_result = _verify(p5_small)
    if tamper:
        reason = "qubit (2,4): conclusive outcome contradicts the declared bit"
        assert new_result == (3, f"rejected: {reason}\n")
    else:
        assert new_result == (0, "accepted: committed bit 0\n")
    assert _verify(old) == new_result
