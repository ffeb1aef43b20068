"""Property tests of the transcript codecs and of the verifier on untrusted JSON."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotlab import cli
from qotlab.bitcommit import (
    PROTOCOL_FAMILIES,
    PROTOCOL_P5,
    bc_commit_over_ot,
    open_message_from_dict,
    open_message_to_dict,
    p5_commit,
    parity_function,
    protocol_family,
    receiver_state_from_dict,
    receiver_state_to_dict,
    sender_state_from_dict,
    sender_state_to_dict,
    verify_from_states,
)
from qotlab.qsim import RngStream


def _commit(protocol_id, bit, seed, l, n, m):
    rng = RngStream(seed, 0)
    if protocol_id == PROTOCOL_P5:
        return p5_commit(bit, m, n, parity_function(n), rng)
    return bc_commit_over_ot(bit, l, n, protocol_id, rng)


@settings(max_examples=40, deadline=None)
@given(
    protocol_id=st.sampled_from(sorted(PROTOCOL_FAMILIES)),
    bit=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
    l=st.integers(1, 3),
    n=st.integers(6, 24),
    m=st.integers(1, 4),
)
def test_json_round_trip_re_encodes_to_the_same_dict(protocol_id, bit, seed, l, n, m):
    t = _commit(protocol_id, bit, seed, l, n, m)
    opening = protocol_family(protocol_id).open(t.sender)
    for to_dict, from_dict, value in (
        (sender_state_to_dict, sender_state_from_dict, t.sender),
        (receiver_state_to_dict, receiver_state_from_dict, t.receiver),
        (open_message_to_dict, open_message_from_dict, opening),
    ):
        encoded = to_dict(value)
        again = to_dict(from_dict(json.loads(json.dumps(encoded))))
        assert again == encoded
        assert json.dumps(again, sort_keys=True) == json.dumps(encoded, sort_keys=True)


def _opening_bits(opening: dict):
    """Key path of every bit an opening declares: the P5 bit and string bits,
    or every round's two shares and declared values."""
    if opening["protocol_id"] == PROTOCOL_P5:
        yield ("bit",)
        for i, string in enumerate(opening["strings"]):
            yield from (("strings", i, j) for j in range(len(string)))
        return
    for i, rnd in enumerate(opening["rounds"]):
        yield ("rounds", i, "share0")
        yield ("rounds", i, "share1")
        for side in ("declared_x", "declared_y"):
            yield from (("rounds", i, side, j, "val") for j in range(len(rnd[side])))


@settings(max_examples=40, deadline=None)
@given(
    protocol_id=st.sampled_from(sorted(PROTOCOL_FAMILIES)),
    bit=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
    l=st.integers(1, 4),
    n=st.integers(6, 24),
    m=st.integers(1, 4),
)
def test_every_single_bit_flip_of_an_opening_is_rejected(protocol_id, bit, seed, l, n, m):
    """The honest opening is accepted; flipping any one of its bits is
    rejected with a reason, whatever the round or position."""
    t = _commit(protocol_id, bit, seed, l, n, m)
    receiver = receiver_state_from_dict(json.loads(json.dumps(receiver_state_to_dict(t.receiver))))
    opening = open_message_to_dict(protocol_family(protocol_id).open(t.sender))
    honest = verify_from_states(receiver, open_message_from_dict(opening))
    assert honest.accepted and honest.recovered_bit == bit
    paths = list(_opening_bits(opening))
    assert paths
    for path in paths:
        bad = json.loads(json.dumps(opening))
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] ^= 1
        result = verify_from_states(receiver, open_message_from_dict(bad))
        assert not result.accepted, path
        assert result.first_inconsistency, path


# any JSON value, biased towards ones a transcript field could plausibly hold
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 20),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(sorted(PROTOCOL_FAMILIES) + ["parity", "B0", "B1", "perp", "psi"]),
    # the share-split cells: sent bits and decoded vectors
    st.text(alphabet="01-", max_size=26),
    st.just([]),
    st.just({}),
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(list),
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["pos", "val", "bad"]), inner, max_size=2),
    ),
    max_leaves=4,
)


def _paths(node, prefix=()):
    """Key path of every value below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def transcripts(tmp_path_factory):
    """Per protocol: a directory and the valid receiver.json and open.json texts."""
    out = {}
    for name in ("p2bc", "p3", "p4", "p5"):
        workdir = tmp_path_factory.mktemp(name)
        common = ["--out", str(workdir)]
        with contextlib.redirect_stdout(io.StringIO()):
            rounds = ["--m", "2"] if name == "p5" else ["--l", "2"]
            commit = ["commit", "--protocol", name, "--n", "8", *rounds]
            assert cli.main([*commit, "--seed", "26", *common]) == 0
            assert cli.main(["open", *common]) == 0
        out[name] = (
            workdir,
            {f: (workdir / f).read_text() for f in ("receiver.json", "open.json")},
        )
    return out


@settings(max_examples=300, deadline=None)
@given(
    protocol=st.sampled_from(["p2bc", "p3", "p4", "p5"]),
    name=st.sampled_from(["receiver.json", "open.json"]),
    data=st.data(),
)
def test_verify_is_total_on_any_single_replaced_value(transcripts, protocol, name, data):
    """Replacing any one value of a valid transcript with arbitrary JSON
    gives accept (0), a malformed-transcript error (2) or a rejection (3);
    nothing raises."""
    workdir, texts = transcripts[protocol]
    doc = json.loads(texts[name])
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(_json_values, label="value")
    for f, text in texts.items():
        (workdir / f).write_text(json.dumps(doc) if f == name else text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["verify", "--out", str(workdir)])
    assert code in (0, 2, 3), (code, stdout.getvalue(), stderr.getvalue())
    if code == 2:
        assert stderr.getvalue().startswith("error: ")
