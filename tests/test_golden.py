"""Seeded outputs pinned by their sha256 digests: small-n runs, and the
benchmark's campaign command lines at full size.

A change meant to keep seeded output byte-identical must leave every digest
here as it is; a change that alters an output on purpose updates its digest
and says why. `outputs` runs each command in process at a fixed seed.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from qotlab import bitcommit, cli
from qotlab.ot12 import k_of
from qotlab.qsim import RngStream

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
    # the benchmark's campaign command lines at its sizes (n = 64, the
    # 160,000-qubit probe-p3 grid), seed 5
    "bench-rot": ["rot", "--n", "64", "--trials", "6", "--seed", "5"],
    "bench-ot12": ["ot12", "--n", "64", "--trials", "12", "--seed", "5"],
    "bench-usd": ["attack", "--attack", "usd", "--n", "64", "--trials", "10", "--seed", "5"],
    "bench-probe-p4": ["attack", "--attack", "probe-p4", "--n", "4", "--trials", "25", "--seed", "5"],
    "bench-probe-p3": ["attack", "--attack", "probe-p3", "--n", "8", "--trials", "20000", "--seed", "5"],
    "bench-omission": [
        "attack", "--attack", "omission", "--n", "8", "--m", "3", "--trials", "8", "--seed", "5",
    ],
    # the P3 probe at n = 3, where runs see few qubits each
    "probe-p3-n3": ["attack", "--attack", "probe-p3", "--n", "3", "--trials", "1000", "--seed", "2"],
    # the dense no-go report: the benchmark's exact command line, a larger
    # instance, and two angles off pi/4, one of them at full JSON precision
    "bench-nogo": ["attack", "--attack", "nogo", "--n", "6"],
    "nogo-n8": ["attack", "--attack", "nogo", "--n", "8"],
    "nogo-theta": ["attack", "--attack", "nogo", "--n", "4", "--theta", "0.4"],
    "nogo-theta-json": ["attack", "--attack", "nogo", "--n", "6", "--theta", "1.2", "--format", "json"],
    # the omission campaign at the benchmark's size with perfect detectors,
    # a long plain channel, and the discriminating receiver at a theta whose
    # Born table holds a tiny negative entry (-2.8e-17 at [1, 0])
    "bench-omission-perfect": [
        "attack", "--attack", "omission", "--n", "8", "--m", "3", "--trials", "8",
        "--perfect-detectors", "--seed", "5",
    ],
    "rot-n1000": ["rot", "--n", "1000", "--trials", "3", *SEEDED],
    "usd-theta": [
        "attack", "--attack", "usd", "--n", "256", "--trials", "20", "--theta", "0.7", *SEEDED,
    ],
}
# commit flags of each pinned transcript directory
COMMITS = {
    "p2bc": ["--protocol", "p2bc", *SEEDED],
    "p3": ["--protocol", "p3", *SEEDED],
    "p4": ["--protocol", "p4", *SEEDED],
    "p5": ["--protocol", "p5", *SEEDED],
    "p2bc-theta": ["--protocol", "p2bc", "--theta", "0.7", *SEEDED],
    # a P3 pass over more rounds of a longer string, seed 5
    "p3-l3-n24": ["--protocol", "p3", "--l", "3", "--n", "24", "--seed", "5"],
}
FILES = ("sender.json", "receiver.json", "open.json")

# The share-split sender.json and receiver.json digests (p2bc, p3, p4,
# p2bc-theta, p3-l3-n24) were recorded at version 0.2.0, which writes a
# round's sent bits "r" and its decoded vector "conclusive" as strings of n
# cells; the files hold the same content as before (see
# test_the_share_split_files_hold_the_0_1_0_content), and each entry keeps
# its 0.1.0 digest in a comment. No open.json, P5 or campaign digest moved.
# The P5 receiver.json digest was recorded at version 0.3.0, which writes the
# decoded grid as m strings of n cells, "conclusive", in place of the
# [basis, outcome] "records" (see test_the_p5_receiver_file_holds_the_0_2_0_content);
# it keeps its 0.2.0 digest in a comment.
# The fifteen share-split digests (sender.json, receiver.json and open.json
# of p2bc, p3, p4, p2bc-theta and p3-l3-n24) were recorded at version 0.4.0,
# which draws each announcement from one draw of n + 1 keys and writes it as
# one string of cells, "sets", in place of the listed sets; each keeps its
# 0.3.2 digest in a comment. The first wave of a commitment draws its
# channel before any announcement, so its rounds keep their shares and rows
# (see test_the_share_split_files_hold_the_0_1_0_content). No campaign or P5
# digest moved: every rate reads only conclusive counts.
# The three P3 probe digests (probe-p3, probe-p3-n3 and bench-probe-p3) were
# recorded at version 0.4.1, which draws each (bit, basis) cell as the two
# low bits of one random byte in place of an int64 draw on 0..3; each keeps
# its 0.4.0 digest in a comment. No other digest moved: the P4 probe reads
# its closed form with the same draws and comes out the same.
# The ten share-split sender.json and receiver.json digests (p2bc, p3, p4,
# p2bc-theta and p3-l3-n24) and the P5 sender.json digest were recorded at
# version 0.5.0, which writes each per-round field of a share-split file as
# one value over the l rounds (a string of l cells, or a list of l strings
# of n cells) and the P5 strings as strings of n cells; the files hold the
# 0.4.2 content, transposed (see test_the_files_hold_the_0_4_2_content), and
# each keeps its 0.4.2 digest in a comment. No open.json, P5 receiver.json
# or campaign digest moved.
DIGESTS = {
    "rot": "cd9b3bc0f190a190e71939f2ea3136bf6ce33bb5ac60cffb52ece595bba7f494",
    "ot12": "eebcb5adc5bf0df52b94dcc33d22f5e121977c888961066c8dd807a914e05771",
    # recorded after abort_rate_exact became the lower tail summed directly
    # instead of 1 - p1: its full-precision row moved from
    # 0.09348581596861649 to 0.0934858159686167 (mpmath at the same float
    # rate 0.24999999999999994: 0.0934858159686168);
    # the digest before was
    # 0e441791e6bfbc7ca9372e367d5c7d3c5be40a958008288d6fd0f601a27b2d2a
    "ot12-json": "fa8f157ae64099710a69d49ed3efff0514962111bf2239941b17c54fbabd000c",
    # recorded after attack usd gained its abort_rate_exact row; the output is
    # the earlier one with only that row added
    "usd": "9e1b11e39fe11393cd8bee193de86dbf8ed210ae509cd27be29c63893bf02bd4",
    "nogo": "af4e3860881449a8cf8286b355052433e54eb6be82bc21f4f711a5ea4ead3f1e",
    # 0.4.0, before the byte cells: 2ba9a4f0a8701e4a030b0621c268d63f35d3ed81fe1031e63d99c6e9a9c99e92
    "probe-p3": "6074e985647397e2e67042cdf422580a1ff77dbe748a0564a58574226ac13d49",
    # recorded after attack probe-p4 gained its per_qubit_detection_exact and
    # run_success_exact rows; the output is the earlier one with only those added
    "probe-p4": "0e391e22429fa421267a4f04eac868155487b53d8ccbedf8d145f78247af3503",
    "omission": "4b84cc90941428c426583008a53bc26f52abe03fd8a75a3842d0d1e23ffa1987",
    # 0.1.0, before the string fields: 511bb309a730befee44d98f5d03f79aca2ccc0fdfb31d3675dc1bcd24282757a
    # 0.3.2, before the "sets" cells: 1e4b304f44b1adef8da46d46c72e95bd9425d0ecc1c71fb9544b9464b61e74f5
    # 0.4.2, before the columns: c3c7660dfd2884975a7ec9cdcb1bb00a1112686be12a7b8f3963734214cd521e
    "p2bc/sender.json": "d9ae3421c29268b70456a981bbbef8ffa55ee9f237b99f3e1da0dcca6fa7298d",
    # 0.1.0, before the string fields: 355eeba8ecb6dded2cbe06ad02f783c06d8a5adf818dd0e11c2d9e0fddb4a4aa
    # 0.3.2, before the "sets" cells: 6075a86587e264e9cba8657f496b634bebbf68fe6e4095fabba3e5d8b1dff5c1
    # 0.4.2, before the columns: fd2d0628d25f20eeaec37a7b8481e2b2572ce1410da41d71a002768f19f71140
    "p2bc/receiver.json": "92fbcedc21bca67dc44f884f69cc82b1a4b36bd990335f55689f19942e33b937",
    # 0.3.2, before the "sets" cells: f871e23a406a9c8dc0e46ec695ca0ee7625537da00edc109bc6a32d201d4af0d
    "p2bc/open.json": "4bf7f2e665107a915d3ce4c2763219a86b1d2b507c778d869f4bb587f2f27647",
    # 0.1.0, before the string fields: 8abc9334d4232c0dcb49aea8292cef8702618a478a90e1c226d1652918f9f81b
    # 0.3.2, before the "sets" cells: 2078f3268de29943df1a6a98a08c5179ec0e81033b33bd92258300d69d96d425
    # 0.4.2, before the columns: bbfbde0c978ab1787306d6a103accf0933492ac6c0892795486bbd5f4c7b87d8
    "p3/sender.json": "de5ee503607ca76ba2c01903c5ff8c68496adbaec0fa924aa12e3d195417ec14",
    # 0.1.0, before the string fields: 3bc8632880ef1476e9204cba7cc073c882ccec6234da5a1343b9826432df0fef
    # 0.3.2, before the "sets" cells: ecb1db086418a45abd705a78a6a8cc4a626e94fd5c3387b2769325ed9fd1d825
    # 0.4.2, before the columns: f4c3a4cbca8df44e7eef3d9577e8b18f6ae9f99e70e2418118295a7b9df9211f
    "p3/receiver.json": "b5d204bdf2246081336f840d54b9c61113adc07c2213e3cae1b90179bd3602c4",
    # 0.3.2, before the "sets" cells: fde22e2cad4b3ec321fed2f32014753700df31d570ca768b012d7ac11c090eb0
    "p3/open.json": "acba46dd6682e58f70fbd9a9591b92ac1664ae004128b3c6557365e6b374378f",
    # 0.1.0, before the string fields: 94e447becc4201d90d16b927f7f99b7f2a2b2b018d4a411088bf87b7c9c1471f
    # 0.3.2, before the "sets" cells: ad4aa8c6237a9ac5fec2029c2a218eceb55e28be9ebd2dc7d1cad701c2bb185e
    # 0.4.2, before the columns: 4653655e26055f2742b623d1c49d7d8846dbcfcafb360d21af2129936d441cd1
    "p4/sender.json": "1e7c90aac5174006dd303b7e82dfd93ebf72dfbbca29948065cc55c75598dc8d",
    # 0.1.0, before the string fields: 74f7b62aa3986c067b63ed6199794d0fe38dcb40439235d6e0f0f28578d6a923
    # 0.3.2, before the "sets" cells: ec4b57dc5e5c24fa95f23005758d3630df01764e927503c4bf4ce9dba3d21f7f
    # 0.4.2, before the columns: 239b0944cbade7626ef25eeb5ee592cc9593d615713be1561b64e4af2eb40232
    "p4/receiver.json": "066304d3548f7c34d77277f59b9f79cd4a46c5c95cd9d6c773ce1cf93e4e177e",
    # 0.3.2, before the "sets" cells: 727d7a2de4c6bcb1519bd41e92357124ed9fb53d4f5828a37a43ad49fc793636
    "p4/open.json": "b65716281580d8d1897cd2beeecf3cf229e69ec88d153bc895b8a7f0a2b2d73b",
    # 0.4.2, before the columns: fcd2a07753541d59c0e9c16a12cce0e48e8ebc4f337a64a28bd9e5bca791c964
    "p5/sender.json": "e855243f482e0fa26c74f55710399672ee229d56cf52a9a6d72e57a75cc5ee9f",
    # 0.2.0, before the decoded cells: 3297fead4b6dfa97e3f7987d5d4dc8727ee349ae635215fbfae27e982f1bed66
    "p5/receiver.json": "845914e7538b2ef7b5febd929c5ebfb0cbf06f90580d40cfda65ad7c0a69d20a",
    "p5/open.json": "574917924ee44901d3ed10fe7fe8e765e7d171818b9e9dc012afb99c93376a81",
    "ot12-theta": "669265e6ce62e29150ee76cdf8c4b2b72f98e9a52ba258b8dbaa739f8ac5f836",
    "rot-theta": "e45f0085363a90e9636f95b94f70422a38977769a970f8a10360aab11d59872e",
    # 0.1.0, before the string fields: 21af68f778d8a924a856aab39d9915923bfdef93305ef4337b909705ef9c1271
    # 0.3.2, before the "sets" cells: 294c46f4b1d4f5fd4536ec7d83657fe382e2b66e156ee0da406060b58c8a9331
    # 0.4.2, before the columns: 15431fb9822c2379401304690577bd9ba0f6397eafacba8f26217dd4411b1bff
    "p2bc-theta/sender.json": "167693d34de5305aa148583917a776ff0a10355c5e97e2d7f77c4de5fa736f66",
    # 0.1.0, before the string fields: 225998d8197951a2ddc80ebb97586268b26850d596b9da345494214c52600d60
    # 0.3.2, before the "sets" cells: 606df28a449738af66ef24cd17001755e1331fa9bcce3aed442e5857bb93b806
    # 0.4.2, before the columns: 654304be1dee645a320456723916ce5a7990d02917d4358001bef21f1c258d7b
    "p2bc-theta/receiver.json": "22d50045ef824e78a98ebf5da3cb999bbf878889bf2f48573b8e6816c1028d1e",
    # 0.3.2, before the "sets" cells: 9c37aaf6db6e04793c47761bbbb2584bb330e7853f59cb022fda77720a1622ec
    "p2bc-theta/open.json": "4f417a9286e6a9d6211c7d30233189f4e7727720cfec7e82d1ff1c7f0c9fddb7",
    "bench-rot": "b45d1945132d165ce919e3fc2f04e3d8b8139c237cd0ece649e9a7924515d3b2",
    "bench-ot12": "b8c396fe6dd584c173807eeefb6a13dd3ea7cc10a687b044294bbd7369011631",
    "bench-usd": "a7cdbfe6ce38a0698aa7bef7d5d891f672784808524a33004e4b9722b55a1f03",
    "bench-probe-p4": "9198a948fa09ab2295801d34ac44dce602ffa1e36694dc9790dcaedb152a2d5f",
    # 0.4.0, before the byte cells: e60a35eb7c7248098be54178b6e11e3638ea79fe2de6a6a5f8c1e29788ce3003
    "bench-probe-p3": "473a0606783f708595de921f205faae9880814eb04bc4a344198fa44bb71c8d8",
    "bench-omission": "3696d0d5003704adb2ef9b8942204cb7128ee408a15f793e1e6455494be87141",
    # 0.4.0, before the byte cells: 0280a13b4152ba518ac11eb3ec90057ba13298b9b00c32a0b383b016b0ebec92
    "probe-p3-n3": "607bcb7de09dcd174369c2d2a125869947b4d696608efdc3c9372a832c5f5a72",
    # recorded before the no-go algebra ran in real arithmetic; the CSV rows
    # print 12 digits and none of them moved
    "bench-nogo": "b224b5977c83dfebb94e93075e5438a3e26dbe4bd866cb0d8998749ba45bd02b",
    "nogo-n8": "60afecec7d927c747b7ac802fd81a88fb6c39dbdb81c8d0702359c6a830fddd3",
    "nogo-theta": "1c4d1950434d38b490dcb1896fe6e313a1823c6abd578d8249e3491afff3c7da",
    # recorded after the fidelity became the singular-value sum of the
    # cross-Gram matrix of the cached eigen-purifications: the full-precision
    # fidelity row moved from 0.6222901128109835 to 0.6222901128109832,
    # 5.5e-16 and 2.5e-16 above the closed form 1/2 sum_h C(6,h)|a_h - b_h| =
    # 0.62229011281098295, and now equals the achieved overlap row; the
    # digests before were
    # 1e9d5001265811745f659a8ff2cac13336d00f72ccf84f39e4333851e5fccf5c
    # (real arithmetic, square roots decomposed again) and
    # 1e35699a0661962366865b28a85183803b8bfdf6122246945f37fcc95abc1a57
    # and, from the eigen-purifications,
    # a33c5469832a132674b699506a66d141f671b3fde3cb30dc1bb7d83b445fca07.
    # Recorded at version 0.3.1, after the report took one SVD of the
    # committer's parity purifications: the fidelity and achieved overlap
    # rows moved from 0.6222901128109832 to 0.622290112810983 (the stored
    # doubles lie 2.8e-16 and 6.1e-17 above the closed form) and detection
    # from 0.6127550154976937 to 0.6127550154976941, 1 - F^2 to the last
    # printed digit; no CSV digest moved. The 0.3.1 digest was
    # b6651d3a73168314ab746f5328b7e81169437ab3c2bca57c54f4c8e3b5e3bfbc.
    # Recorded at version 0.3.2, after the report took its fidelity and
    # detection from the closed-form sums and its rotation from the
    # Walsh-Hadamard basis: the fidelity row moved to 0.6222901128109831, the
    # achieved overlap to 0.6222901128109828 and detection to
    # 0.6127550154976944 (mpmath: 0.6222901128109829 and 0.6127550154976941,
    # so the closed-form rows lie 2 and 3 ulp above; the 0.3.1 rows lay 1
    # and 0 ulp off, but over 2k <= 10 the SVD fidelity strayed up to 52
    # ulp where the closed form strays 7); no CSV digest moved
    "nogo-theta-json": "a96ccc90c8bde1afef76b5748b02249a027f0729eb716b696c7e199a78403315",
    # 0.1.0, before the string fields: 4ef42898af5cafea43bebb85bc0b2178a32887e311d275d193af2340029fbe98
    # 0.3.2, before the "sets" cells: 207cda527a5571f7f2ea23a82e4827a55a9bf4688fc26a01f6eab220ea9ede7f
    # 0.4.2, before the columns: e5bf29a30108aa8b05770e5feca1389356571372d2f6e0d5bcee2b1a61f32322
    "p3-l3-n24/sender.json": "134b93ed6e3a8baad93dfaf91c80232cffcf92acdc2d44fe2b64e91d99e07324",
    # 0.1.0, before the string fields: 0c5a04ab67238cbfa138b15e8a65db8302b9e33a3339c3a2d65cec46443523c3
    # 0.3.2, before the "sets" cells: 5926705c32732f7ddfd8b0c029c148623715cdeadfa915b4a7599396b0bbe2a3
    # 0.4.2, before the columns: 6e31515e8d7f986704fb18d519315c17b45c8f3c220d4231a54a8951482f75a3
    "p3-l3-n24/receiver.json": "09cdec7c6edd66d7f1fec797d4f09c48076b2812deef1085ff350996f381533c",
    # 0.3.2, before the "sets" cells: 67d7ac601d4a4aebbe793bec8750879e0bed535557e3324608e8d8af9783cfd3
    "p3-l3-n24/open.json": "7321f5db4bce54ab1d1f11af7211f98535326c2611412a394c101ba45806cdac",
    # recorded before the omission trials were measured in one stacked pass
    # and the table channels sampled from cached running sums
    "bench-omission-perfect": "66ac31a45ef14b7b23d19fa164709d7730708565e88ccc4445092ba217a91a0b",
    "rot-n1000": "adef1da13e21c4f6cb45b8b35727191be92791d65683a996c326e9e90dab292e",
    "usd-theta": "c14fef42798e432459374969415edca636f963ef15e1902dc71669b454a8fdce",
}

DATA = Path(__file__).parent / "data"

# P2-BC sender.json and receiver.json files of commit --protocol p2bc
# --seed 11, the "p2bc" files pinned above, as three older versions wrote
# them: 0.1.0, where a round's "r" was a list of bits and its "conclusive" a
# list of {"pos", "val"} objects, 0.3.2, the last to list the announced
# sets ("x_set"/"y_set", "i_set"/"j_set"), and 0.4.2, the last to write
# each round as its own object.
OLD_P2BC = {
    (version, name): DATA / f"p2bc_{name.removesuffix('.json')}_{version}.json"
    for version in ("0.1.0", "0.3.2", "0.4.2")
    for name in ("sender.json", "receiver.json")
}

# The P5 sender.json of commit --protocol p5 --seed 11, the "p5" file pinned
# above, as version 0.4.2 wrote it: each string a list of bits.
OLD_P5_SENDER = DATA / "p5_sender_0.4.2.json"

# Two older P5 receiver.json files of commit --protocol p5 --n 4 --m 2
# --seed 11, both holding the grid as [basis, outcome] "records": one from
# version 0.2.0, and one from before the receiver stopped storing its
# blinding angles, which still holds "alphas".
OLD_P5_RECEIVER = DATA / "p5_receiver_0.2.0.json"
OLD_P5_RECEIVER_WITH_ALPHAS = DATA / "p5_receiver_with_alphas.json"


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
        _run(["commit", *flags, "--out", str(transcripts)])
        _run(["open", "--out", str(transcripts)])
        for f in FILES:
            out[f"{name}/{f}"] = (transcripts / f).read_bytes()
    return out


def test_seeded_outputs_match_their_digests(tmp_path):
    got = {name: hashlib.sha256(data).hexdigest() for name, data in outputs(tmp_path).items()}
    assert got == DIGESTS


def _main(command: str, workdir: Path) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one command on a transcript directory."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([command, "--out", str(workdir)])
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.fixture
def p5_small(tmp_path):
    """The P5 commit and opening that OLD_P5_RECEIVER came from."""
    workdir = tmp_path / "new"
    _run(["commit", "--protocol", "p5", "--n", "4", "--m", "2", *SEEDED, "--out", str(workdir)])
    _run(["open", "--out", str(workdir)])
    return workdir


def _decoded_cell(record) -> str:
    """A 0.2.0 outcome record as the cell 0.3.0 writes for it: a perp
    outcome in basis x decodes x xor 1, anything else is "-"."""
    if record is None or record[1] != "perp":
        return "-"
    return "1" if record[0] == "B0" else "0"


def test_the_p5_receiver_file_holds_the_0_2_0_content(p5_small):
    """Each string holds the old records' decoded bits, and every other
    field is equal."""
    old = json.loads(OLD_P5_RECEIVER.read_text())
    new = json.loads((p5_small / "receiver.json").read_text())
    records = old.pop("records")
    assert new.pop("conclusive") == ["".join(map(_decoded_cell, row)) for row in records]
    assert old == new


@pytest.mark.parametrize(
    "path", [OLD_P5_RECEIVER, OLD_P5_RECEIVER_WITH_ALPHAS], ids=["0.2.0", "with-alphas"]
)
def test_an_old_p5_receiver_file_is_refused(p5_small, path):
    """The records form is a missing "conclusive" field, and no traceback."""
    (p5_small / "receiver.json").write_text(path.read_text())
    assert _main("verify", p5_small) == (2, "", "error: missing field 'conclusive'\n")


@pytest.fixture
def p2bc_seeded(tmp_path):
    """The P2-BC commit and opening that OLD_P2BC came from."""
    workdir = tmp_path / "new"
    _run(["commit", *COMMITS["p2bc"], "--out", str(workdir)])
    _run(["open", "--out", str(workdir)])
    return workdir


def _first_wave_rounds() -> int:
    """How many rounds the first wave of the "p2bc" commit completes. Its
    draws (the committed bit, the shares, one channel pass) come before any
    announcement draw, so no version's announcement rule can move them."""
    rng = RngStream(int(SEED), cli._STREAM_COMMIT)
    rng.bit()
    rng.bits(8)
    _, decoded = bitcommit._ot_channel(bitcommit.PROTOCOL_P2BC, 8, 16, bitcommit.ENCODE_ANGLE, rng)
    return int(np.count_nonzero((decoded >= 0).sum(axis=1) >= k_of(16)))


def _as_cells(old_round: dict, field: str, n: int) -> str:
    """A 0.1.0 round's list field as the string 0.2.0 writes for it."""
    if field == "r":
        return "".join(str(bit) for bit in old_round["r"])
    cells = ["-"] * n
    for pair in old_round["conclusive"]:
        cells[pair["pos"] - 1] = str(pair["val"])
    return "".join(cells)


# the per-round fields of a share-split file: since 0.5.0 each is one value
# over the l rounds, a string of one bit cell per round or a list of l strings
_COLUMNS = ("share0", "share1", "r", "sets", "c0", "c1", "m", "conclusive", "received_share")


def _as_rounds(doc: dict) -> dict:
    """A 0.5.0 share-split file as 0.4.2 wrote it: one object per round,
    holding the round's cell of each bit column as an integer and its string
    of each row column."""
    doc = dict(doc)
    rounds = [{} for _ in range(doc["l"])]
    for key in [key for key in _COLUMNS if key in doc]:
        column = doc.pop(key)
        assert len(column) == doc["l"], key
        for rnd, value in zip(rounds, column):
            rnd[key] = int(value) if isinstance(column, str) else value
    return {**doc, "rounds": rounds}


@pytest.mark.parametrize(
    "name, fields",
    [("sender.json", ("share0", "share1", "r")), ("receiver.json", ("conclusive",))],
)
def test_the_share_split_files_hold_the_0_1_0_content(p2bc_seeded, name, fields):
    """The header is equal, and every round of the first wave holds the old
    round's shares and row: the string holds the old list's bits, or the old
    pairs' values at their positions and "-" elsewhere."""
    old = json.loads(OLD_P2BC["0.1.0", name].read_text())
    new = _as_rounds(json.loads((p2bc_seeded / name).read_text()))
    assert {**old, "rounds": None} == {**new, "rounds": None}
    assert len(old["rounds"]) == len(new["rounds"]) == 8
    first_wave = _first_wave_rounds()
    assert first_wave > 0
    for old_round, new_round in zip(old["rounds"][:first_wave], new["rounds"]):
        for field in fields:
            cells = field in ("r", "conclusive")
            assert new_round[field] == (_as_cells(old_round, field, 16) if cells else old_round[field])


@pytest.fixture
def p5_seeded(tmp_path):
    """The P5 commit that OLD_P5_SENDER came from."""
    workdir = tmp_path / "p5"
    _run(["commit", *COMMITS["p5"], "--out", str(workdir)])
    return workdir


@pytest.mark.parametrize("name", ["sender.json", "receiver.json", "p5/sender.json"])
def test_the_files_hold_the_0_4_2_content(p2bc_seeded, p5_seeded, name):
    """Transposed back, each column into one object per round, a share-split
    file is the 0.4.2 file; a P5 sender file is it with each string read
    back into its list of bits."""
    if name == "p5/sender.json":
        new = json.loads((p5_seeded / "sender.json").read_text())
        new["strings"] = [[int(cell) for cell in string] for string in new["strings"]]
        assert new == json.loads(OLD_P5_SENDER.read_text())
    else:
        new = json.loads((p2bc_seeded / name).read_text())
        assert _as_rounds(new) == json.loads(OLD_P2BC["0.4.2", name].read_text())


@pytest.mark.parametrize(
    "version, command, name, reason",
    [
        ("0.1.0", "open", "sender.json", "missing field 'share0'"),
        ("0.1.0", "verify", "receiver.json", "missing field 'm'"),
        ("0.3.2", "open", "sender.json", "missing field 'share0'"),
        ("0.3.2", "verify", "receiver.json", "missing field 'm'"),
        ("0.4.2", "open", "sender.json", "missing field 'share0'"),
        ("0.4.2", "verify", "receiver.json", "missing field 'm'"),
    ],
)
def test_an_old_share_split_file_is_refused(p2bc_seeded, version, command, name, reason):
    """Each older file keeps its rounds as a list of objects, so it lacks
    the first column its reader looks for; that field is named, with no
    traceback."""
    (p2bc_seeded / name).write_text(OLD_P2BC[version, name].read_text())
    assert _main(command, p2bc_seeded) == (2, "", f"error: {reason}\n")


def test_an_old_p5_sender_file_is_refused(p5_seeded):
    """A list of bits where a string of cells belongs is a malformed string,
    named with its index, and no traceback."""
    (p5_seeded / "sender.json").write_text(OLD_P5_SENDER.read_text())
    reason = "field 'strings[0]' is malformed: expected a string of n = 8 cells, got list"
    assert _main("open", p5_seeded) == (2, "", f"error: {reason}\n")
