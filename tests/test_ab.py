"""tools/ab.py: the two trees of an A/B run must return the same op outputs,
or, with --count-differences, have the ops whose outputs differ counted."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def _result(accepted, bit, reason):
    return SimpleNamespace(accepted=accepted, recovered_bit=bit, first_inconsistency=reason)


def _roundtrip(reason="round 1: shares are not bits", path=("rounds", 0, "share0")):
    honest = _result(True, 1, None)
    return {"results": [("P2-BC", 1, honest, path, _result(False, None, reason))], "codec_bytes": 9}


def _transcript(decoded=(-1, 0, 1), sets=((2,), (1,), 0)):
    """A campaign transcript with the fields ab.py compares."""
    aborted = sets is None
    return SimpleNamespace(
        sender=SimpleNamespace(bits=np.array([1, 0, 1], dtype=np.int8)),
        receiver=SimpleNamespace(
            decoded=np.array(decoded, dtype=np.int8),
            conclusive=tuple((p, v) for p, v in enumerate(decoded, start=1) if v >= 0),
        ),
        sets=None if aborted else SimpleNamespace(i_set=sets[0], j_set=sets[1], m=sets[2]),
        c0=None if aborted else 1,
        c1=None if aborted else 0,
        b_received=None if aborted else 1,
    )


_CAMPAIGN = {"csv": {"rot": "header\nrow\n", "omission": "header\n"}, "transcripts": [_transcript()]}
_EXACT = {"csv": "header\n", "n": 20000, "p1": 0.25, "p2": 1e-90}


@pytest.mark.parametrize(
    "workload, base, new, key",
    [
        ("campaign", _CAMPAIGN, {**_CAMPAIGN, "transcripts": [_transcript()]}, None),
        (
            "campaign",
            _CAMPAIGN,
            {**_CAMPAIGN, "transcripts": [_transcript(decoded=(-1, -1, 1))]},
            "transcripts[0].decoded",
        ),
        (
            "campaign",
            _CAMPAIGN,
            {**_CAMPAIGN, "transcripts": [_transcript(sets=((2,), (3,), 0))]},
            "transcripts[0].sets",
        ),
        (
            "campaign",
            _CAMPAIGN,
            {**_CAMPAIGN, "transcripts": [_transcript(sets=None)]},
            "transcripts[0].sets",
        ),
        (
            "campaign",
            _CAMPAIGN,
            {**_CAMPAIGN, "transcripts": [*_CAMPAIGN["transcripts"], _transcript()]},
            "transcripts[1].sent",
        ),
        ("campaign", _CAMPAIGN, {**_CAMPAIGN, "csv": {"rot": "header\nrow\n"}}, "csv[omission]"),
        ("exact", _EXACT, dict(_EXACT), None),
        ("exact", _EXACT, {**_EXACT, "p2": np.nextafter(1e-90, 1.0)}, "p2"),
        ("exact", _EXACT, {**_EXACT, "n": 20001}, "n"),
        ("commit-roundtrip", _roundtrip(), _roundtrip(), None),
        ("commit-roundtrip", _roundtrip(), _roundtrip(reason="other"), "results[0].tampered.reason"),
        (
            "commit-roundtrip",
            _roundtrip(),
            _roundtrip(path=("rounds", 0, "share1")),
            "results[0].tampered_path",
        ),
    ],
)
def test_the_first_output_difference_is_named(workload, base, new, key):
    differs = ab.differences(workload, base, new)
    assert next((k for k, moved in differs.items() if moved), None) == key


# a tree's bench/workloads.py, reduced to what ab.py calls: its `exact` ops
# return n = 1 and p1 = 1/2, or on odd op seeds 1 + SHIFT and 1/2 + SHIFT
# ulp; its `campaign` ops return two CSV keys and two transcripts, and on
# odd op seeds SHIFT moves the probe-p3 CSV and the decoded row of both
# transcripts; every op encodes CODEC bytes of transcript JSON; the per-op
# check counts the ops it saw, and the pooled check fails when told to or
# when an op went unchecked
_FAKE_WORKLOADS = """
from types import SimpleNamespace

import numpy as np


def op_seed(seed, index):
    return 1000 * seed + index


def transcript(shift):
    return SimpleNamespace(
        sender=SimpleNamespace(bits=np.array([1, 0])),
        receiver=SimpleNamespace(decoded=np.array([1, -shift]), conclusive=((1, 1),)),
        sets=None, c0=None, c1=None, b_received=None,
    )


class Workload:
    def __init__(self, name):
        self.name = name
        self.problems = []
        self.ops = self.checked = 0

    def op(self, seed):
        self.ops += 1
        moved = {shift} * (seed % 2)
        if self.name == "campaign":
            csv = {{"rot": "rows", "probe-p3": f"rows {{moved}}"}}
            return {{"csv": csv, "transcripts": [transcript(moved), transcript(moved)]}}
        return {{"csv": "", "n": 1 + moved, "p1": 0.5 + moved * 2.0**-53, "p2": 0.25}}

    def check(self, out):
        self.checked += 1

    def codec_bytes(self, out):
        return {codec}

    def finish(self):
        if {fail} or self.checked != self.ops:
            self.problems.append("pooled check failed")


def make(name):
    return Workload(name)
"""


def _fake_tree(root, shift=0, fail=False, codec=0):
    (root / "src" / "qotlab").mkdir(parents=True)
    (root / "src" / "qotlab" / "__init__.py").write_text("")
    (root / "bench").mkdir()
    workloads = _FAKE_WORKLOADS.format(shift=shift, fail=fail, codec=codec)
    (root / "bench" / "workloads.py").write_text(workloads)
    return root


@pytest.fixture
def trees(tmp_path):
    """Builds fake trees; the modules ab.py unloads are put back afterwards."""
    saved = {name: module for name, module in sys.modules.items() if ab._owned(name)}
    yield lambda name, **kwargs: _fake_tree(tmp_path / name, **kwargs)
    for name in [n for n in sys.modules if ab._owned(n)]:
        del sys.modules[name]
    sys.modules.update(saved)


def _ab(base, new, *flags, workload="exact"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ab.main([str(base), str(new), "--workload", workload, "--pairs", "4", *flags])
    return code, out.getvalue()


def test_the_first_output_difference_ends_the_run(trees):
    code, out = _ab(trees("base"), trees("new", shift=1))
    assert code == 1
    assert out == "OUTPUT DIFFERS: exact op 1 (op seed 7001): n\n"


@pytest.mark.parametrize("shift, differing", [(0, "0/5 ops, warm-up included"), (1, "2/5 ops")])
def test_counted_differences_are_printed_beside_the_timing_rows(trees, shift, differing):
    code, out = _ab(trees("base"), trees("new", shift=shift), "--count-differences")
    assert code == 0, out
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["base exact", "new  exact"]
    assert lines[2].startswith("ratio base/new of the medians: x")
    assert lines[3].startswith(f"outputs differ in {differing}")
    if shift:
        assert lines[3].endswith("; first: exact op 1 (op seed 7001): n")
    # the float key that moved shows by how much; the int key does not
    p1 = "  p1: 2 (max rel 2.2e-16)" if shift else "  p1: 0"
    assert lines[4:] == ["  csv: 0", f"  n: {2 * shift}", p1, "  p2: 0"]


def test_differences_are_counted_per_key_with_indices_read_as_a_star(trees):
    """Every key is listed, those that never differed at 0; the two
    transcripts' decoded rows differ in the same two ops, counted once each."""
    code, out = _ab(trees("base"), trees("new", shift=1), "--count-differences", workload="campaign")
    assert code == 0, out
    lines = out.splitlines()
    assert lines[3].endswith("; first: campaign op 1 (op seed 7001): csv[probe-p3]")
    assert lines[4:] == [
        "  csv[rot]: 0",
        "  csv[probe-p3]: 2",
        "  transcripts[*].sent: 0",
        "  transcripts[*].decoded: 2",
        "  transcripts[*].conclusive: 0",
        "  transcripts[*].sets: 0",
        "  transcripts[*].c0: 0",
        "  transcripts[*].c1: 0",
        "  transcripts[*].b_received: 0",
    ]


@pytest.mark.parametrize(
    "key, group",
    [
        ("transcripts[12].decoded", "transcripts[*].decoded"),
        ("results[0].tampered.reason", "results[*].tampered.reason"),
        ("csv[probe-p3]", "csv[probe-p3]"),
        ("p2", "p2"),
    ],
)
def test_a_key_group_reads_list_indices_as_a_star(key, group):
    assert ab.key_group(key) == group


@pytest.mark.parametrize(
    "base, new, size",
    [
        (0.5, 0.5, 0.0),
        (1.0, 1.0 - 2.0**-53, 2.0**-53),
        (-2.0, -1.0, 0.5),
        (np.float64(1e-90), np.nextafter(1e-90, 1.0), 1.0 - 1e-90 / np.nextafter(1e-90, 1.0)),
        (0.0, 1e-300, 1.0),
        (1, 2, None),
        (True, 0.5, None),
        ("header", "other", None),
        (None, 0.5, None),
    ],
)
def test_a_relative_difference_is_read_between_floats_only(base, new, size):
    got = ab.relative_difference(base, new)
    assert got == (pytest.approx(size, rel=1e-12) if size else size)


def test_counted_differences_keep_the_checks(trees):
    """Every op goes through its tree's check, and a failing pooled check
    still fails the run."""
    code, out = _ab(trees("base", fail=True), trees("new", shift=1), "--count-differences")
    assert code == 1
    assert "CHECK FAIL (base): pooled check failed" in out
    assert "CHECK FAIL (new)" not in out


def test_each_tree_prints_its_codec_bytes_beside_its_time(trees):
    """A tree whose ops encode transcripts shows its median bytes per op on
    its timing row; a tree whose ops encode none shows nothing there."""
    code, out = _ab(trees("base", codec=2646), trees("new"))
    assert code == 0, out
    base, new = out.splitlines()[:2]
    assert base.startswith("base exact: median ") and base.endswith(" over 4 ops; codec 2646 B/op")
    assert new.startswith("new  exact: median ") and new.endswith(" over 4 ops")
