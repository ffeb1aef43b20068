"""tools/ab.py: the two trees of an A/B run must return the same op outputs."""

import importlib.util
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
    assert ab.first_difference(workload, base, new) == key
