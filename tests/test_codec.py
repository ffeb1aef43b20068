"""Property tests of the transcript codecs and of the verifier on untrusted JSON."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotlab import cli
from qotlab.bitcommit import (
    PROTOCOL_FAMILIES,
    PROTOCOL_P2BC,
    PROTOCOL_P5,
    CommitReceiverState,
    P5ReceiverState,
    ReceiverCommitRound,
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
from qotlab.ot12 import IndexSets
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
    st.sampled_from(sorted(PROTOCOL_FAMILIES) + ["parity"]),
    # cells: sent bits and decoded rows, and announced sets
    st.text(alphabet="01-", max_size=26),
    st.text(alphabet="xy-", max_size=26),
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


# a decoded row: the decoded bit at each position, -1 where nothing was learned
_decoded_rows = st.integers(1, 40).flatmap(
    lambda n: st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)
)


def _receiver_files(row: list[int]) -> list[tuple[dict, list, int, str]]:
    """The receiver files that hold `row`, each as (its dict, the list that
    holds the row's string, the string's index there, the name a refusal
    gives it): a P5 file with the row as its one string, and a one-round
    share-split file announcing I at the row's first conclusive position,
    when it has one and n > 1. Both name the string as conclusive[0]."""
    n = len(row)
    decoded = np.array(row, dtype=np.int8)
    p5 = receiver_state_to_dict(
        P5ReceiverState(PROTOCOL_P5, parity_function(n), decoded[np.newaxis])
    )
    files = [(p5, p5["conclusive"], 0, "conclusive[0]")]
    learned = [pos for pos, val in enumerate(row, start=1) if val >= 0]
    if learned and n > 1:
        i_pos = learned[0]
        j_pos = 2 if i_pos == 1 else 1
        sets = IndexSets(i_set=(i_pos,), j_set=(j_pos,), m=0)
        rnd = ReceiverCommitRound(sets, decoded, 0, 0, 0)
        state = CommitReceiverState(PROTOCOL_P2BC, n, 1, math.pi / 4, (rnd,))
        split = receiver_state_to_dict(state)
        files.append((split, split["conclusive"], 0, "conclusive[0]"))
    return files


@settings(max_examples=300, deadline=None)
@given(row=_decoded_rows)
def test_any_decoded_row_round_trips_through_both_receiver_files(row):
    """One writer and one reader serve both families: each cell is "0", "1"
    or "-" (nothing learned), and reading it back gives the read-only int8
    row that was written."""
    text = "".join("01-"[val] for val in row)
    for doc, holder, key, _ in _receiver_files(row):
        assert holder[key] == text
        state = receiver_state_from_dict(json.loads(json.dumps(doc)))
        rows = [rnd.decoded for rnd in state.rounds] if "l" in doc else list(state.decoded)
        assert [r.tolist() for r in rows] == [row]
        assert all(r.dtype == np.int8 and not r.flags.writeable for r in rows)


def _forgeries(text: str):
    """Anything but a string of len(text) cells from "01-": one cell replaced
    by another character, a string of another length, or a non-string."""
    n = len(text)
    return st.one_of(
        st.tuples(
            st.integers(0, n - 1), st.characters(exclude_characters="01-")
        ).map(lambda cut: text[:cut[0]] + cut[1] + text[cut[0] + 1:]),
        st.text(alphabet="01-", max_size=45).filter(lambda s: len(s) != n),
        _json_values.filter(lambda v: not isinstance(v, str)),
    )


@settings(max_examples=300, deadline=None)
@given(row=_decoded_rows, data=st.data())
def test_a_forged_cell_string_is_refused_naming_it(row, data):
    text = "".join("01-"[val] for val in row)
    forged = data.draw(_forgeries(text), label="forged")
    for doc, holder, key, name in _receiver_files(row):
        holder[key] = forged
        with pytest.raises(ValueError) as refusal:
            receiver_state_from_dict(doc)
        assert str(refusal.value).startswith(f"field '{name}' is malformed: ")


@settings(max_examples=100, deadline=None)
@given(row=_decoded_rows)
def test_an_unlearned_cell_at_an_announced_i_position_is_refused(row):
    for doc, holder, key, name in _receiver_files(row)[1:]:
        # m = 0 announces I first, as X
        i_pos = doc["sets"][0].index("x") + 1
        holder[key] = holder[key][:i_pos - 1] + "-" + holder[key][i_pos:]
        with pytest.raises(ValueError) as refusal:
            receiver_state_from_dict(doc)
        assert str(refusal.value) == (
            f"field '{name}' is malformed: announced I position {i_pos} is not conclusive"
        )


# ---------------------------------------------------------------------------
# the share-split columns: each per-round field is one value over the l rounds

# per file: its bit columns, each a string of l cells "0"/"1", and its row
# columns, each a list of l strings of n cells from the alphabet given
_BIT_COLUMNS = {
    "sender.json": ("share0", "share1", "c0", "c1"),
    "receiver.json": ("m", "c0", "c1", "received_share"),
}
_ROW_COLUMNS = {
    "sender.json": {"r": "01", "sets": "xy-"},
    "receiver.json": {"sets": "xy-", "conclusive": "01-"},
}
# a cell outside each alphabet, taken from another column's
_FOREIGN = {"01": "-", "xy-": "0", "01-": "y"}
# the column each reader reads first, after the header
_FIRST = {"sender.json": "share0", "receiver.json": "m"}


def _set_cell(cells: str, i: int, value: str) -> str:
    return cells[:i] + value + cells[i + 1:]


def _column_forgeries(name: str, doc: dict):
    """(what was forged, the forged document, the refusal) for every way of
    breaking a column of a valid share-split file of l = 3 rounds, n = 16
    and k = 3: each column deleted, retyped, a cell or row short or long, a
    cell outside its alphabet; an `l` the columns do not hold; a `sets`
    row without k of each letter; and "-" at an announced I cell."""

    def forged(key, value):
        return {**doc, key: value}

    for key in _BIT_COLUMNS[name]:
        cells, bad = doc[key], f"field {key!r} is malformed: "
        yield f"{key} deleted", {k: v for k, v in doc.items() if k != key}, f"missing field {key!r}"
        yield f"{key} retyped", forged(key, [int(c) for c in cells]), (
            bad + "expected a string of l = 3 cells, got list"
        )
        yield f"{key} short", forged(key, cells[:-1]), bad + "expected a string of l = 3 cells, got 2"
        yield f"{key} long", forged(key, cells + "0"), bad + "expected a string of l = 3 cells, got 4"
        yield f"{key} foreign cell", forged(key, _set_cell(cells, 1, "-")), (
            bad + "cell '-' is not one of '01'"
        )
    for key, alphabet in _ROW_COLUMNS[name].items():
        rows, bad = doc[key], f"field '{key}[1]' is malformed: "

        def row(value, rows=rows):
            return [rows[0], value, *rows[2:]]

        yield f"{key} deleted", {k: v for k, v in doc.items() if k != key}, f"missing field {key!r}"
        yield f"{key} retyped", forged(key, "".join(rows)), (
            f"field {key!r} is malformed: expected a list, got str"
        )
        yield f"{key} short", forged(key, rows[:-1]), f"field {key!r} holds 2 strings, but field 'l' is 3"
        yield f"{key} long", forged(key, rows + rows[:1]), (
            f"field {key!r} holds 4 strings, but field 'l' is 3"
        )
        yield f"{key}[1] short", forged(key, row(rows[1][:-1])), (
            bad + "expected a string of n = 16 cells, got 15"
        )
        yield f"{key}[1] long", forged(key, row(rows[1] + rows[1][0])), (
            bad + "expected a string of n = 16 cells, got 17"
        )
        yield f"{key}[1] retyped", forged(key, row(list(rows[1]))), (
            bad + "expected a string of n = 16 cells, got list"
        )
        cell = _FOREIGN[alphabet]
        yield f"{key}[1] foreign cell", forged(key, row(_set_cell(rows[1], 0, cell))), (
            bad + f"cell {cell!r} is not one of {alphabet!r}"
        )
    first = _FIRST[name]
    yield "l above the columns", {**doc, "l": 4}, (
        f"field {first!r} is malformed: expected a string of l = 4 cells, got 3"
    )
    sets = doc["sets"]
    yield "sets[1] short of k", forged("sets", [sets[0], sets[1].replace("x", "-", 1), sets[2]]), (
        "field 'sets[1]' is malformed: expected k = 3 cells each of 'x' and 'y', got 2 and 3"
    )
    if name == "receiver.json":
        # X is I when m = 0, else Y
        i_pos = sets[1].index("xy"[int(doc["m"][1])])
        cells = doc["conclusive"]
        unlearned = [cells[0], _set_cell(cells[1], i_pos, "-"), cells[2]]
        yield "conclusive[1] unlearned at I", forged("conclusive", unlearned), (
            f"field 'conclusive[1]' is malformed: announced I position {i_pos + 1} is not conclusive"
        )


@pytest.mark.parametrize("name", ["sender.json", "receiver.json"])
def test_every_malformed_column_is_refused_naming_it(name, tmp_path):
    """Each forgery of a column exits 2 with one line naming the field, and
    no traceback; `open` reads the sender file and `verify` the receiver's."""
    common = ["--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        commit = ["commit", "--protocol", "p2bc", "--l", "3", "--n", "16", "--seed", "26"]
        assert cli.main([*commit, *common]) == 0
        assert cli.main(["open", *common]) == 0
    valid = json.loads((tmp_path / name).read_text())
    assert valid["l"] == 3 and valid["n"] == 16 and valid["k"] == 3
    cases = list(_column_forgeries(name, valid))
    assert len(cases) == (39 if name == "receiver.json" else 38)
    command = "open" if name == "sender.json" else "verify"
    for what, doc, reason in cases:
        (tmp_path / name).write_text(json.dumps(doc))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([command, *common])
        assert (code, stdout.getvalue(), stderr.getvalue()) == (2, "", f"error: {reason}\n"), what
